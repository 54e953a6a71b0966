"""Fast-path engine: compiled program cache and per-mode delta tables.

One :class:`ProgramFast` holds everything the machine's dispatcher needs
to accelerate a (machine, program) pair:

* ``compiled()`` — label -> generated block function (mode-independent;
  see :mod:`repro.perf.blockc`), generated on a live run's first call;
* ``timing`` — the program's per-mode decoded timing programs
  (:class:`~repro.simulator.timing.TimingTables`), shared by the
  reference interpreter's blocks and by replays;
* ``consts(mode)`` — label -> folded per-execution delta tuple, the
  timing model itself evaluated once per (block, mode) under the fast
  path's preconditions (:func:`~repro.simulator.timing.fold_block`);
  pure timing, so replays use it without generating any code;
* ``loop_fn(header, mode)`` — generated steady-state loop function
  (:mod:`repro.perf.loopc`): compiled once per loop, then bound to each
  mode's folded ``dt``/``de`` floats;
* ``loop_headers_disjoint(schedule)`` — the headers whose loops contain
  no scheduled edge (mode-sets must execute in the dispatcher, so such
  loops cannot be fast-forwarded).

Compilation is best-effort throughout: any block or loop that fails to
compile simply stays on the reference interpreter.  Instances are cached
per process, keyed by the program's content and the machine's
configuration and mode-table values, so every :class:`Machine` built for
the same experiment shares one compilation.
"""

from __future__ import annotations

import os
import types
from collections import OrderedDict

from repro import observe
from repro.ir.loops import find_natural_loops
from repro.perf.blockc import compile_block
from repro.perf.loopc import compile_loop
from repro.simulator.timing import TimingTables, fold_block

#: Most :class:`ProgramFast` instances kept per process (least recently
#: used evicted first).
CACHE_SIZE = 64

_CACHE: OrderedDict = OrderedDict()


def fastpath_disabled_env() -> bool:
    """True when ``$REPRO_NO_FASTPATH`` globally disables the fast path."""
    return os.environ.get("REPRO_NO_FASTPATH", "") not in ("", "0")


class ProgramFast:
    """Fast-path state for one (machine, CFG) pair.

    The timing half (``timing``, ``consts``) is built eagerly and costs
    no code generation; block and loop functions are generated on the
    first :meth:`compiled` call, which only a live run makes.  A process
    that only replays recordings therefore compiles nothing.
    """

    def __init__(self, machine, cfg) -> None:
        self.name = cfg.name
        self.config = machine.config
        self.mode_table = machine.mode_table
        self.element_size = cfg.element_size
        _, block_lines = machine._decode(cfg)
        self.block_lines = block_lines
        self.blocks = {label: blk.instructions for label, blk in cfg.blocks.items()}
        self.timing = TimingTables(self.blocks, block_lines, self.config,
                                   self.mode_table)
        #: label -> the even stream code a recorded execution of it gets.
        self.codes = {label: bid << 1 for bid, label in enumerate(self.blocks)}
        self._cfg = cfg
        self._consts: dict[int, dict] = {}
        self._block_fns: dict | None = None
        self._loop_code: dict = {}
        self._loop_fns: dict = {}
        self._loop_bodies: dict[str, list[str]] = {}
        self.loop_edges: dict[str, frozenset] = {}

    def compiled(self) -> dict:
        """Label -> generated block function, generating every block and
        finding the fast-forwardable loops on the first call."""
        if self._block_fns is not None:
            return self._block_fns
        block_fns: dict = {}
        with observe.span("perf.codegen", program=self.name, kind="blocks") as sp:
            for label, instrs in self.blocks.items():
                try:
                    fn = compile_block(label, instrs, self.block_lines[label],
                                       self.config, self.element_size)
                except Exception:
                    fn = None
                if fn is not None:
                    block_fns[label] = fn
        observe.add("perf.codegen.blocks", len(self.blocks))
        observe.add("perf.codegen_s", sp.elapsed_s)
        self._block_fns = block_fns

        cfg = self._cfg
        try:
            loops = find_natural_loops(cfg)
        except Exception:
            loops = []
        for loop in loops:
            header = loop.header
            if any(label not in block_fns for label in loop.blocks):
                continue
            body = [header] + [l for l in cfg.blocks
                               if l in loop.blocks and l != header]
            edges = set()
            for label in body:
                instrs = self.blocks[label]
                if not instrs:
                    continue
                for tgt in getattr(instrs[-1], "targets", tuple)():
                    if tgt in loop.blocks:
                        edges.add((label, tgt))
            self._loop_bodies[header] = body
            self.loop_edges[header] = frozenset(edges)
        return block_fns

    def consts(self, mode: int) -> dict:
        """Label -> per-execution folded delta tuple for one mode, for
        every block in CFG order (cached).  Pure timing: it needs no
        compiled code."""
        table = self._consts.get(mode)
        if table is None:
            table = {label: fold_block(self.timing, label, mode)
                     for label in self.blocks}
            self._consts[mode] = table
        return table

    def loop_fn(self, header: str, mode: int):
        """The loop function for (header, mode), or None (cached).

        The loop's code is generated once; each mode gets a function
        object over that code whose defaults are the mode's folded
        per-block ``dt``/``de`` floats.
        """
        key = (header, mode)
        if key in self._loop_fns:
            return self._loop_fns[key]
        fn = None
        template = self._template(header)
        if template is not None:
            consts = self.consts(mode)
            deltas = []
            for label in self._loop_bodies[header]:
                deltas.extend(consts[label][:2])
            fn = types.FunctionType(
                template.__code__, template.__globals__, template.__name__,
                tuple(deltas) + template.__defaults__[len(deltas):])
        self._loop_fns[key] = fn
        return fn

    def _template(self, header: str):
        """The mode-independent compiled loop for ``header``, or None."""
        if header in self._loop_code:
            return self._loop_code[header]
        fn = None
        body = self._loop_bodies.get(header)
        if body is not None:
            with observe.span("perf.codegen", kind="loop", header=header) as sp:
                try:
                    fn = compile_loop(header, body, self.blocks, self.block_lines,
                                      self.config, self.element_size,
                                      self.consts(0), self.codes)
                except Exception:
                    fn = None
            observe.add("perf.codegen.loops")
            observe.add("perf.codegen_s", sp.elapsed_s)
        self._loop_code[header] = fn
        return fn

    def loop_headers_disjoint(self, schedule) -> frozenset:
        """Headers of loops none of whose internal edges are scheduled."""
        if not schedule:
            return frozenset(self.loop_edges)
        scheduled = set(schedule)
        return frozenset(
            header for header, edges in self.loop_edges.items()
            if not (edges & scheduled)
        )


def program_key(cfg) -> tuple:
    """Everything about a CFG that its compiled fast path depends on."""
    return (cfg.entry, cfg.element_size, tuple(
        (label, tuple(f"{type(i).__name__}{i.__dict__!r}" for i in blk.instructions))
        for label, blk in cfg.blocks.items()))


def program_fast(machine, cfg) -> ProgramFast:
    """The cached :class:`ProgramFast` for (machine, cfg).

    The per-process cache keys programs by content (CFGs are mutable and
    unhashable, and each experiment task compiles or builds its own
    objects) and machines by their configuration and mode-table values,
    so equal programs on equal machines share one compilation.  It holds
    at most :data:`CACHE_SIZE` entries.
    """
    key = (program_key(cfg), machine.config, tuple(machine.mode_table.points))
    pf = _CACHE.get(key)
    if pf is not None:
        _CACHE.move_to_end(key)
        return pf
    pf = ProgramFast(machine, cfg)
    _CACHE[key] = pf
    if len(_CACHE) > CACHE_SIZE:
        _CACHE.popitem(last=False)
    return pf
