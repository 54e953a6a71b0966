"""Intermediate representation substrate.

Workload programs are represented as a control-flow graph (CFG) of basic
blocks over a small RISC-like virtual instruction set.  This is the level
at which everything else operates:

* the frontend (:mod:`repro.lang`) lowers source programs to a CFG;
* the machine simulator (:mod:`repro.simulator`) executes CFGs with a
  timing/energy model;
* the profiler (:mod:`repro.profiling`) counts CFG edges and local paths;
* the MILP formulation (:mod:`repro.core.milp`) assigns a DVS mode to every
  CFG edge.

The ISA is deliberately simple — virtual registers, explicit loads/stores
against a flat byte-addressed data memory, and class-tagged operations so
the energy model can charge per-class activation energies (Wattch-style).
"""

import importlib

#: Public names and their modules, imported on first use: the CFG types
#: load without the interpreter, the builder or the loop analyses.
_LAZY = {
    "BinOp": "instructions",
    "Branch": "instructions",
    "Const": "instructions",
    "Instruction": "instructions",
    "Jump": "instructions",
    "Load": "instructions",
    "Move": "instructions",
    "OpClass": "instructions",
    "Ret": "instructions",
    "Store": "instructions",
    "UnOp": "instructions",
    "BasicBlock": "basic_block",
    "CFG": "cfg",
    "Edge": "cfg",
    "FunctionBuilder": "builder",
    "LoopInfo": "loops",
    "compute_dominators": "loops",
    "find_natural_loops": "loops",
    "InterpResult": "interp",
    "interpret": "interp",
    "validate_cfg": "validate",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)


__all__ = [
    "BasicBlock",
    "BinOp",
    "Branch",
    "CFG",
    "Const",
    "Edge",
    "FunctionBuilder",
    "Instruction",
    "InterpResult",
    "Jump",
    "Load",
    "LoopInfo",
    "Move",
    "OpClass",
    "Ret",
    "Store",
    "UnOp",
    "compute_dominators",
    "find_natural_loops",
    "interpret",
    "validate_cfg",
]
