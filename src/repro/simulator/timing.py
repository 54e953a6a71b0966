"""The per-instruction timing model, shared by live runs and replays.

A block execution splits into a *functional* half — register and memory
arithmetic plus the cache accesses, whose outcomes depend only on the
program, its inputs and the access order — and a *timing* half that turns
those outcomes into wall time, CPU/DRAM energy and the Section 3.2 cycle
classes under one operating point.  :class:`TimingModel` is the timing
half, the only copy of it:

* the machine's reference interpreter executes a block functionally,
  collecting one outcome code per access, then times it here;
* a replay (:meth:`repro.simulator.machine.Machine.replay`) times the
  outcome stream a recorded run left behind, under another mode;
* the fast path's folded per-block deltas are this model evaluated once
  per (block, mode) under its preconditions (:func:`fold_block`).

Outcome codes are ``0`` (L1 hit), ``1`` (L2 hit) and ``2`` (main-memory
miss), in access order: first one I-fetch per line the block spans, then
one per load/store.  The per-mode constants are decoded into plain tuples
(:meth:`TimingTables.table`), so the hot loop does no ``OpClass`` lookup
and the float expressions are the ones the interpreter always evaluated,
operation for operation.
"""

from __future__ import annotations

from repro.ir.instructions import BinOp, Load, Ret, Store, UnOp
from repro.simulator.energy import EnergyModel

#: Access outcome codes (see the module docstring).
L1_HIT, L2_HIT, MEM_MISS = 0, 1, 2

# Timing-op kinds.
_ALU, _LOAD, _STORE, _RET = range(4)


def _timing_op(instr, cycle_time: float, op_energy: dict) -> tuple:
    """``(kind, waits, dst, lat, dt, energy)`` for one instruction.

    ``waits`` are the registers whose pending misses the instruction
    waits on, in the order the interpreter checks them; ``dst`` is the
    register whose pending state it clears (a load's destination becomes
    pending on a miss instead).
    """
    cls = instr.op_class
    energy = op_energy[cls]
    uses = tuple(instr.uses())
    if isinstance(instr, Load):
        return (_LOAD, uses, instr.dst, 1, cycle_time, energy)
    if isinstance(instr, Store):
        return (_STORE, uses, None, 1, cycle_time, energy)
    if isinstance(instr, Ret):
        return (_RET, uses, None, 1, cycle_time, energy)
    if isinstance(instr, (BinOp, UnOp)):
        lat = cls.latency
        return (_ALU, uses, instr.dst, lat, lat * cycle_time, energy)
    # Const, Move, Branch, Jump: one cycle.
    return (_ALU, uses, instr.defs(), 1, cycle_time, energy)


class TimingTables:
    """Per-mode decoded timing programs for one (program, machine) pair.

    Args:
        blocks: label -> instruction list, in CFG order (block ids are
            positions in this order).
        block_lines: label -> I-line byte addresses.
        config: the :class:`~repro.simulator.config.MachineConfig`.
        mode_table: the machine's :class:`~repro.simulator.dvs.ModeTable`.
    """

    def __init__(self, blocks: dict, block_lines: dict, config, mode_table) -> None:
        self.blocks = blocks
        self.block_lines = block_lines
        self.config = config
        self.mode_table = mode_table
        self.labels = list(blocks)
        self.index = {label: bid for bid, label in enumerate(self.labels)}
        #: Outcome codes of an execution whose every access hit in L1.
        self.all_l1 = [
            (L1_HIT,) * (len(block_lines[label])
                         + sum(isinstance(i, (Load, Store)) for i in instrs))
            for label, instrs in blocks.items()
        ]
        self._energy = EnergyModel(config)
        self._tables: dict[int, tuple] = {}

    def table(self, mode: int) -> tuple:
        """``(mode_consts, per-block timing programs)`` for one mode (cached)."""
        table = self._tables.get(mode)
        if table is None:
            point = self.mode_table.points[mode]
            ct = point.cycle_time_s
            v = point.voltage
            op_energy = {cls: self._energy.op_energy_nj(cls, v)
                         for cls in {i.op_class for instrs in self.blocks.values()
                                     for i in instrs}}
            programs = [
                (len(self.block_lines[label]),
                 tuple(_timing_op(i, ct, op_energy) for i in instrs))
                for label, instrs in self.blocks.items()
            ]
            table = (self._mode_consts(ct, v), programs)
            self._tables[mode] = table
        return table

    def _mode_consts(self, ct: float, v: float) -> tuple:
        cfg = self.config
        base_c = cfg.base_c_eff_nf
        i_hit = cfg.l1i.hit_latency_cycles
        d_hit = cfg.l1d.hit_latency_cycles
        l2_hit = cfg.l2.hit_latency_cycles
        i_sync = (i_hit, i_hit + l2_hit, i_hit + l2_hit)
        d_sync = (d_hit, d_hit + l2_hit, d_hit + l2_hit)
        l1i_c = cfg.l1i.access_energy_nf
        l1d_c = cfg.l1d.access_energy_nf
        return (
            i_sync,
            tuple(s * ct for s in i_sync),
            tuple((l1i_c + base_c * s) * v * v for s in i_sync),
            d_sync,
            tuple(s * ct for s in d_sync),
            tuple((l1d_c + base_c * s) * v * v for s in d_sync),
            cfg.l2.access_energy_nf * v * v,
        )


class TimingModel:
    """Timing state of one run: pending registers, the memory port, and
    the run-level cycle-class and stall accumulators.

    :meth:`block` times one block execution against this state and
    returns the block-local deltas the caller commits.  Integer counters
    are summed here; the caller adds the ones it folded itself.
    """

    __slots__ = ("pending", "miss_done", "gated_wait", "overlap", "dependent",
                 "cache_cycles", "dmiss_sync", "ifetch", "mem_misses",
                 "mem_latency", "mem_energy", "consts")

    def __init__(self, config, consts: tuple) -> None:
        self.pending: dict[str, float] = {}  # register -> wall time when ready
        self.miss_done = 0.0
        self.gated_wait = 0.0
        self.overlap = 0
        self.dependent = 0
        self.cache_cycles = 0
        self.dmiss_sync = 0
        self.ifetch = 0
        self.mem_misses = 0
        self.mem_latency = config.memory_latency_s
        self.mem_energy = config.memory_access_energy_nj
        self.consts = consts

    def block(self, program: tuple, outs, pos: int, now: float):
        """Time one block execution starting at wall time ``now``.

        Args:
            program: the block's ``(n_lines, ops)`` from
                :meth:`TimingTables.table`.
            outs: access outcome codes; this block's start at ``pos``.
            pos: index of the block's first outcome in ``outs``.
            now: wall time at block entry.

        Returns:
            ``(bt, e_local, m_local, pos)``: block wall time, CPU energy,
            DRAM energy, and the index just past the block's outcomes.
        """
        n_lines, ops = program
        i_sync, i_dt, i_e, d_sync, d_dt, d_e, l2e = self.consts
        pending = self.pending
        miss_done = self.miss_done
        gated = self.gated_wait
        mem_latency = self.mem_latency
        mem_energy = self.mem_energy
        overlap = dependent = cache_cycles = dmiss_sync = ifetch = misses = 0
        bt = 0.0       # block-local wall-time offset from `now`
        e_local = 0.0  # block-local CPU energy
        m_local = 0.0  # block-local DRAM energy
        rel_md = miss_done - now
        ret = False

        # Instruction fetch: one I-cache access per line the block spans.
        for _ in range(n_lines):
            lvl = outs[pos]
            pos += 1
            ifetch += i_sync[lvl]
            bt += i_dt[lvl]
            e_local += i_e[lvl]
            if lvl == L2_HIT:
                e_local += l2e
            elif lvl == MEM_MISS:
                # Instruction miss: synchronous wall-clock fill.
                if bt < rel_md:
                    gated += rel_md - bt
                    bt = rel_md
                misses += 1
                m_local += mem_energy
                miss_done = (now + bt) + mem_latency
                gated += mem_latency
                bt = miss_done - now
                rel_md = bt

        for kind, waits, dst, lat, dt, energy in ops:
            if pending:
                for reg in waits:
                    ready = pending.pop(reg, None)
                    if ready is not None:
                        rr = ready - now
                        if rr > bt:
                            gated += rr - bt
                            bt = rr
            if kind == _ALU:
                if bt < rel_md:
                    overlap += lat
                else:
                    dependent += lat
                bt += dt
                e_local += energy
                if dst is not None and pending:
                    pending.pop(dst, None)
            elif kind == _RET:
                bt += dt
                e_local += energy
                ret = True
            else:  # load or store: address generation, then the access
                bt += dt
                e_local += energy
                lvl = outs[pos]
                pos += 1
                sync = d_sync[lvl]
                bt += d_dt[lvl]
                e_local += d_e[lvl]
                if lvl != L1_HIT:
                    e_local += l2e
                if lvl == MEM_MISS:
                    if bt < rel_md:  # single memory port
                        gated += rel_md - bt
                        bt = rel_md
                    misses += 1
                    m_local += mem_energy
                    miss_done = (now + bt) + mem_latency
                    rel_md = miss_done - now
                    if kind == _LOAD:
                        pending[dst] = miss_done
                    # a store completes via the store buffer: nothing pending
                    dmiss_sync += 1 + sync
                else:
                    cache_cycles += 1 + sync
                    if kind == _LOAD and pending:
                        pending.pop(dst, None)

        if ret and bt < rel_md:
            # Drain the outstanding miss before the program "completes".
            gated += rel_md - bt
            bt = rel_md

        self.miss_done = miss_done
        self.gated_wait = gated
        self.overlap += overlap
        self.dependent += dependent
        self.cache_cycles += cache_cycles
        self.dmiss_sync += dmiss_sync
        self.ifetch += ifetch
        self.mem_misses += misses
        return bt, e_local, m_local, pos


def fold_block(tables: TimingTables, label: str, mode: int) -> tuple:
    """One block's folded per-execution delta under one mode.

    The fast path replays a block only when nothing is pending, no miss
    is outstanding and every access hits in L1; under those
    preconditions the block's timing is a constant of (block, mode), and
    this evaluates it with the timing model itself.

    Returns:
        ``(dt, de, n_instr, dep_cycles, cache_cycles, ifetch_cycles,
        d_hits, i_hits)``.
    """
    consts, programs = tables.table(mode)
    bid = tables.index[label]
    model = TimingModel(tables.config, consts)
    outs = tables.all_l1[bid]
    bt, e_local, _, _ = model.block(programs[bid], outs, 0, 0.0)
    n_lines = len(tables.block_lines[label])
    return (bt, e_local, len(tables.blocks[label]), model.dependent,
            model.cache_cycles, model.ifetch, len(outs) - n_lines, n_lines)

