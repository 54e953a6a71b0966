"""Reference interpreter: IR semantics without any timing or energy model.

Used to test that the machine simulator computes the same values as plain
execution, and that frontend lowering preserves source semantics.  Memory is
a flat byte-addressed array of ``element_size``-wide cells holding Python
floats/ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.ir.cfg import CFG
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

_INT_BINOPS = {
    "add": lambda a, b: int(a) + int(b),
    "sub": lambda a, b: int(a) - int(b),
    "mul": lambda a, b: int(a) * int(b),
    "div": lambda a, b: _int_div(a, b),
    "mod": lambda a, b: _int_mod(a, b),
    "and": lambda a, b: int(a) & int(b),
    "or": lambda a, b: int(a) | int(b),
    "xor": lambda a, b: int(a) ^ int(b),
    "shl": lambda a, b: int(a) << int(b),
    "shr": lambda a, b: int(a) >> int(b),
    "lt": lambda a, b: int(int(a) < int(b)),
    "le": lambda a, b: int(int(a) <= int(b)),
    "gt": lambda a, b: int(int(a) > int(b)),
    "ge": lambda a, b: int(int(a) >= int(b)),
    "eq": lambda a, b: int(int(a) == int(b)),
    "ne": lambda a, b: int(int(a) != int(b)),
    "min": lambda a, b: min(int(a), int(b)),
    "max": lambda a, b: max(int(a), int(b)),
}

_FP_BINOPS = {
    "fadd": lambda a, b: float(a) + float(b),
    "fsub": lambda a, b: float(a) - float(b),
    "fmul": lambda a, b: float(a) * float(b),
    "fdiv": lambda a, b: float(a) / float(b),
    "flt": lambda a, b: int(float(a) < float(b)),
    "fle": lambda a, b: int(float(a) <= float(b)),
    "fgt": lambda a, b: int(float(a) > float(b)),
    "fge": lambda a, b: int(float(a) >= float(b)),
    "feq": lambda a, b: int(float(a) == float(b)),
    "fne": lambda a, b: int(float(a) != float(b)),
    "fmin": lambda a, b: min(float(a), float(b)),
    "fmax": lambda a, b: max(float(a), float(b)),
}

_UNOPS = {
    "neg": lambda a: -int(a),
    "not": lambda a: int(not int(a)),
    "abs": lambda a: abs(int(a)),
    "fneg": lambda a: -float(a),
    "fabs": lambda a: abs(float(a)),
    "i2f": lambda a: float(int(a)),
    "f2i": lambda a: int(float(a)),
    "sqrt": lambda a: math.sqrt(float(a)),
}


def _int_div(a, b) -> int:
    """C-style truncating division (0 divisor raises)."""
    a, b = int(a), int(b)
    if b == 0:
        raise SimulationError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _int_mod(a, b) -> int:
    a, b = int(a), int(b)
    if b == 0:
        raise SimulationError("integer modulo by zero")
    return a - _int_div(a, b) * b


def apply_binop(op: str, a, b):
    """Evaluate a binary operator; shared with the machine simulator."""
    if op in _INT_BINOPS:
        return _INT_BINOPS[op](a, b)
    if op in _FP_BINOPS:
        return _FP_BINOPS[op](a, b)
    raise SimulationError(f"unknown binary op {op!r}")


def apply_unop(op: str, a):
    """Evaluate a unary operator; shared with the machine simulator."""
    if op in _UNOPS:
        return _UNOPS[op](a)
    raise SimulationError(f"unknown unary op {op!r}")


class DataMemory:
    """Flat element-addressed memory backing loads and stores.

    Addresses are byte addresses; each cell is ``element_size`` bytes and
    holds one numeric value, so the address must be element-aligned.
    """

    def __init__(self, size_bytes: int, element_size: int = 4) -> None:
        self.element_size = element_size
        self.cells: list[float] = [0] * (max(size_bytes, element_size) // element_size + 1)

    def _index(self, address: int) -> int:
        address = int(address)
        if address < 0:
            raise SimulationError(f"negative memory address {address}")
        if address % self.element_size:
            raise SimulationError(f"misaligned access at byte address {address}")
        index = address // self.element_size
        if index >= len(self.cells):
            raise SimulationError(f"out-of-bounds access at byte address {address}")
        return index

    def copy(self) -> "DataMemory":
        """An independent memory with the same contents."""
        clone = DataMemory.__new__(DataMemory)
        clone.element_size = self.element_size
        clone.cells = list(self.cells)
        return clone

    def read(self, address: int):
        return self.cells[self._index(address)]

    def write(self, address: int, value) -> None:
        self.cells[self._index(address)] = value

    def write_array(self, base: int, values) -> None:
        """Bulk-initialize an array region starting at ``base``."""
        values = list(values)
        if not values:
            return
        # Validate both ends once; interior addresses of a stride-1 element
        # run are then aligned and in bounds by construction.
        start = self._index(base)
        self._index(base + (len(values) - 1) * self.element_size)
        self.cells[start:start + len(values)] = values

    def read_array(self, base: int, length: int) -> list:
        """Bulk-read ``length`` elements from ``base``."""
        return [self.read(base + i * self.element_size) for i in range(length)]


@dataclass
class InterpResult:
    """Output of a reference interpretation."""

    return_value: float | None
    instructions_executed: int
    block_counts: dict[str, int] = field(default_factory=dict)
    edge_counts: dict[tuple[str, str], int] = field(default_factory=dict)
    memory: DataMemory | None = None


def interpret(
    cfg: CFG,
    inputs: dict[str, list] | None = None,
    registers: dict[str, float] | None = None,
    max_steps: int = 200_000_000,
) -> InterpResult:
    """Execute a CFG with reference semantics.

    Args:
        cfg: the program.
        inputs: array name -> initial values (must match declared arrays).
        registers: initial register values (program parameters).
        max_steps: safety cap on executed instructions.

    Returns:
        :class:`InterpResult` with the return value, dynamic counts and the
        final memory image (for reading back output arrays).
    """
    memory = DataMemory(cfg.data_size() + cfg.element_size, cfg.element_size)
    for name, values in (inputs or {}).items():
        base, length = cfg.arrays[name]
        if len(values) > length:
            raise SimulationError(
                f"input for {name!r} has {len(values)} elements, array holds {length}"
            )
        memory.write_array(base, values)

    regs: dict[str, float] = dict(registers or {})
    block_counts: dict[str, int] = {}
    edge_counts: dict[tuple[str, str], int] = {}
    label = cfg.entry
    executed = 0

    def read(reg: str):
        try:
            return regs[reg]
        except KeyError:
            raise SimulationError(f"read of undefined register {reg!r}") from None

    while True:
        block = cfg.block(label)
        block_counts[label] = block_counts.get(label, 0) + 1
        next_label: str | None = None
        return_value: float | None = None
        for instr in block.instructions:
            executed += 1
            if executed > max_steps:
                raise SimulationError(f"exceeded max_steps={max_steps}")
            if isinstance(instr, Const):
                regs[instr.dst] = instr.value
            elif isinstance(instr, Move):
                regs[instr.dst] = read(instr.src)
            elif isinstance(instr, BinOp):
                regs[instr.dst] = apply_binop(instr.op, read(instr.lhs), read(instr.rhs))
            elif isinstance(instr, UnOp):
                regs[instr.dst] = apply_unop(instr.op, read(instr.src))
            elif isinstance(instr, Load):
                regs[instr.dst] = memory.read(int(read(instr.base)) + instr.offset)
            elif isinstance(instr, Store):
                memory.write(int(read(instr.base)) + instr.offset, read(instr.src))
            elif isinstance(instr, Branch):
                next_label = instr.if_true if read(instr.cond) else instr.if_false
            elif isinstance(instr, Jump):
                next_label = instr.target
            elif isinstance(instr, Ret):
                return_value = read(instr.value) if instr.value else None
                return InterpResult(
                    return_value=return_value,
                    instructions_executed=executed,
                    block_counts=block_counts,
                    edge_counts=edge_counts,
                    memory=memory,
                )
            else:
                raise SimulationError(f"unknown instruction {instr!r}")
        if next_label is None:
            raise SimulationError(f"block {label!r} fell through without terminator")
        edge_counts[(label, next_label)] = edge_counts.get((label, next_label), 0) + 1
        label = next_label
