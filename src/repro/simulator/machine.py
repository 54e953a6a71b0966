"""Instruction-level timing and energy simulation of IR programs.

The :class:`Machine` executes a CFG under a DVS mode table, producing wall
time, CPU energy, per-block time/energy, edge counts and local-path counts
— everything the profiler and the analytical-parameter extraction need —
and re-times recorded executions under other modes (:meth:`Machine.replay`).

Timing model
============

* The CPU issues one instruction at a time, in order; each instruction
  occupies its :class:`~repro.ir.instructions.OpClass` latency in CPU
  cycles (cycles scale with the current frequency).
* Cache hits are synchronous: L1/L2 hit latencies are CPU cycles.
* Main-memory misses are asynchronous (the paper's assumption 2): the miss
  is serviced in wall-clock ``memory_latency_s`` regardless of CPU
  frequency.  The destination register becomes *pending* and execution
  continues — this is the overlap the paper's model exploits.  One miss may
  be outstanding at a time (single memory port); a second miss, or an
  instruction reading a pending register, stalls with the clock gated
  (assumption 3: gated stalls consume no energy).
* Executing a mode-set on an edge whose mode differs from the current one
  stalls for ``ST`` seconds and charges ``SE`` Joules (Section 4.2); a
  mode-set whose value equals the current mode is silent and free.

Statistics for the analytical model
===================================

The run classifies every cycle the way Section 3.2 does: compute cycles
issued while a miss is outstanding accumulate ``overlap_cycles``
(N_overlap); other compute cycles accumulate ``dependent_cycles``
(N_dependent); memory-operation cycles that hit in cache accumulate
``cache_cycles`` (N_cache); and ``t_invariant_s`` is the total wall-clock
main-memory service time (misses × latency, port-serialized).

Functional execution and timing
===============================

The reference interpreter executes a block in two halves: the
*functional* half (register and memory arithmetic, one cache lookup per
I-line and per load/store, yielding an outcome code each), then the
*timing* half, :class:`~repro.simulator.timing.TimingModel`, which turns
those outcomes into wall time, energy and the cycle classes above.  The
timing model is the only implementation of the rules listed above; the
fast path's folded deltas and :meth:`Machine.replay` use it too.

Accounting structure (the fast-path contract)
=============================================

Wall time and energy are accumulated *per block execution* into local
deltas and committed once per block: ``now += Δt`` plus compensated
(Neumaier) additions of ``Δt``/``Δe`` into the per-block and run-level
accumulators.  Both the reference interpreter and the :mod:`repro.perf`
fast path therefore perform the *identical* sequence of run-level float
operations — which is what makes block-delta memoization bit-exact: a
memoized delta is the same float the interpreter would have produced, and
it is applied through the same commit.  The fast path engages only when
the pending set is empty, no miss is outstanding, and every I-line and
touched D-line of the block is L1-resident; anything else falls back to
the reference interpretation below (``fastpath=False`` or
``$REPRO_NO_FASTPATH=1`` disables the fast path entirely).

Record and replay
=================

Cache contents depend on the access order alone, and neither control
flow nor a mode-set changes the access order, so one run can stand in
for every fixed-mode or scheduled run of the same program and inputs.
``run(..., record=stream)`` fills an :class:`ExecutionStream` with the
block sequence and the outcomes of every execution that missed L1;
:meth:`Machine.replay` re-times that stream under another mode or a
schedule — folded deltas where the replay's own state is clean and the
block was all-L1, the timing model elsewhere, and the edge mode-sets
through the same switch as a live run — and returns a RunResult
bit-identical to ``run(cfg, mode=m)`` or ``run(cfg, schedule=s)``.  The
profiler uses it for all modes but the first, the pipeline's
``simulate`` task for the scheduled run (``docs/performance.md``).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro import observe
from repro.errors import ScheduleError, SimulationError
from repro.ir.cfg import CFG, ENTRY_EDGE_SOURCE, Edge
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
from repro.ir.interp import DataMemory, _FP_BINOPS, _INT_BINOPS, _UNOPS
from repro.simulator.cache import Cache, CacheHierarchy
from repro.simulator.config import MachineConfig, SCALE_CONFIG
from repro.simulator.dvs import ModeTable, TransitionCostModel, XSCALE_3, ZERO_TRANSITION
from repro.simulator.timing import TimingModel, TimingTables

# Decoded opcode kinds (tuple dispatch for speed).
_CONST, _MOVE, _BINOP, _UNOP, _LOAD, _STORE, _BRANCH, _JUMP, _RET = range(9)


@dataclass
class BlockStats:
    """Per-basic-block accumulation over one run."""

    count: int = 0
    time_s: float = 0.0
    cpu_energy_nj: float = 0.0


@dataclass
class RunResult:
    """Everything observable from one simulated execution."""

    return_value: float | None
    wall_time_s: float
    cpu_energy_nj: float
    memory_energy_nj: float
    instructions: int
    block_stats: dict[str, BlockStats]
    edge_counts: dict[Edge, int]
    path_counts: dict[tuple[str, str, str], int]
    cache_stats: dict[str, int]
    # analytical-model parameter ingredients (Section 3.2)
    overlap_cycles: int
    dependent_cycles: int
    cache_cycles: int
    dmiss_sync_cycles: int
    ifetch_cycles: int
    mem_misses: int
    t_invariant_s: float
    gated_wait_s: float
    # DVS accounting
    mode_transitions: int = 0
    modeset_executions: int = 0
    transition_energy_nj: float = 0.0
    transition_time_s: float = 0.0
    final_mode: int = 0
    memory: DataMemory | None = None

    @property
    def total_energy_nj(self) -> float:
        return self.cpu_energy_nj + self.memory_energy_nj


@dataclass
class StreamBase:
    """The mode-independent facts of a recorded run.

    A replay copies the first two into its result and checks its own
    cycle classes, miss count and block counts against the rest, so a
    stream that does not describe its recorded run is refused.  A stream
    loaded from an artifact (:func:`repro.profiling.serialize.stream_from_dict`)
    carries only these; one recorded in memory also keeps the profile
    dicts and the final data memory, which its replays copy.
    """

    return_value: float | None
    instructions: int
    block_counts: tuple[int, ...]  # per block id (position in cfg.blocks)
    cache_cycles: int
    ifetch_cycles: int
    dmiss_sync_cycles: int
    mem_misses: int
    edge_counts: dict[Edge, int] = field(default_factory=dict)
    path_counts: dict[tuple[str, str, str], int] = field(default_factory=dict)
    cache_stats: dict[str, int] = field(default_factory=dict)
    memory: DataMemory | None = None

    @classmethod
    def of(cls, result: RunResult) -> "StreamBase":
        return cls(
            return_value=result.return_value,
            instructions=result.instructions,
            block_counts=tuple(s.count for s in result.block_stats.values()),
            cache_cycles=result.cache_cycles,
            ifetch_cycles=result.ifetch_cycles,
            dmiss_sync_cycles=result.dmiss_sync_cycles,
            mem_misses=result.mem_misses,
            edge_counts=result.edge_counts,
            path_counts=result.path_counts,
            cache_stats=result.cache_stats,
            memory=result.memory,
        )


@dataclass
class ExecutionStream:
    """What a recorded run leaves behind for :meth:`Machine.replay`.

    Attributes:
        blocks: one code per block execution, in order: the block's index
            in ``cfg.blocks`` shifted left by one, plus one when any of
            its accesses missed L1.
        outcomes: for each odd-coded execution, its access outcome codes
            (:mod:`repro.simulator.timing`), I-fetches first.
        cfg: the recorded program (set when the run completes).
        base: the recorded run's mode-independent facts (set when the run
            completes).
        config: the recording machine's configuration; the outcomes hold
            for it alone (any mode table may replay them).
    """

    blocks: array = field(default_factory=lambda: array("I"))
    outcomes: array = field(default_factory=lambda: array("B"))
    cfg: CFG | None = None
    base: StreamBase | None = None
    config: MachineConfig | None = None


class _ModeSwitch:
    """The mode-set instruction on a scheduled edge, and its accounting.

    Live runs and replays both execute mode-sets through this one object.
    A mode-set whose value equals the current mode is silent and free; a
    real switch stalls for ``ST`` and charges ``SE`` (Section 4.2), then
    rebinds every mode-derived table: the timing model's constants and,
    through the return value, the caller's timing programs and folded
    per-block deltas.  Stale bindings would silently misprice the new
    mode.
    """

    __slots__ = ("voltages", "transition_model", "tables", "timing", "deltas",
                 "mode", "executions", "transitions", "time_s", "energy_nj")

    def __init__(self, machine: "Machine", tables: TimingTables,
                 timing: TimingModel, deltas, mode: int) -> None:
        self.voltages = [p.voltage for p in machine.mode_table.points]
        self.transition_model = machine.transition_model
        self.tables = tables
        self.timing = timing
        self.deltas = deltas  # mode -> the caller's folded-delta table, or None
        self.mode = mode
        self.executions = 0
        self.transitions = 0
        self.time_s = 0.0
        self.energy_nj = 0.0

    def __call__(self, target: int):
        """Execute one mode-set to ``target``.

        Returns:
            None when the mode-set is silent, else ``(st, programs,
            deltas)``: the stall to add to the wall clock and the new
            mode's timing programs and folded-delta table.
        """
        self.executions += 1
        current = self.mode
        if target == current:
            return None
        v_from = self.voltages[current]
        v_to = self.voltages[target]
        st = self.transition_model.time_s(v_from, v_to)
        # Canonical nJ-space cost: the same method the MILP's linearized
        # CE constant derives from, so the charged SE can never drift
        # from the formulation's.
        self.time_s += st
        self.energy_nj += self.transition_model.energy_nj(v_from, v_to)
        self.transitions += 1
        self.mode = target
        mode_consts, programs = self.tables.table(target)
        self.timing.consts = mode_consts
        deltas = self.deltas(target) if self.deltas is not None else None
        return st, programs, deltas


class Machine:
    """A DVS-capable processor model executing IR programs.

    Args:
        config: machine description (caches, memory latency, energies).
        mode_table: the available (V, f) operating points.
        transition_model: regulator model for mode-switch costs.
        fastpath: enable the :mod:`repro.perf` hot-path acceleration
            (block-delta memoization and steady-state loop
            fast-forwarding).  The fast path is bit-exact — it produces
            the same :class:`RunResult` as the reference interpreter —
            so this switch exists only for differential testing and as
            an escape hatch (also ``$REPRO_NO_FASTPATH=1``).
    """

    def __init__(
        self,
        config: MachineConfig = SCALE_CONFIG,
        mode_table: ModeTable = XSCALE_3,
        transition_model: TransitionCostModel = ZERO_TRANSITION,
        fastpath: bool = True,
    ) -> None:
        self.config = config
        self.mode_table = mode_table
        self.transition_model = transition_model
        self.fastpath = fastpath
        #: Diagnostic snapshot of the last run's fast-path activity
        #: (block/loop hit counts).  Not part of any RunResult.
        self.last_fastpath_stats: dict[str, int] = {}
        #: The same for the last :meth:`replay`: block executions committed
        #: from folded deltas, timed by the timing model, and timed although
        #: recorded all-L1 (the replayed mode met a pending miss there).
        self.last_replay_stats: dict[str, int] = {}

    # -- decoding ---------------------------------------------------------------

    def _decode(self, cfg: CFG):
        """Pre-decode blocks into functional dispatch tuples and I-fetch
        line lists (timing lives in :mod:`repro.simulator.timing`)."""
        decoded: dict[str, list] = {}
        block_lines: dict[str, list[int]] = {}
        line_bytes = self.config.l1i.line_bytes
        # Code lives in its own region far above any data address, so
        # instruction lines never alias data lines in the shared L2.
        next_addr = 1 << 30
        for label, block in cfg.blocks.items():
            instrs = []
            start_addr = next_addr
            for instr in block.instructions:
                if isinstance(instr, Const):
                    instrs.append((_CONST, instr.dst, instr.value))
                elif isinstance(instr, Move):
                    instrs.append((_MOVE, instr.dst, instr.src))
                elif isinstance(instr, BinOp):
                    fn = _INT_BINOPS.get(instr.op) or _FP_BINOPS[instr.op]
                    instrs.append((_BINOP, fn, instr.dst, instr.lhs, instr.rhs))
                elif isinstance(instr, UnOp):
                    instrs.append((_UNOP, _UNOPS[instr.op], instr.dst, instr.src))
                elif isinstance(instr, Load):
                    instrs.append((_LOAD, instr.dst, instr.base, instr.offset))
                elif isinstance(instr, Store):
                    instrs.append((_STORE, instr.src, instr.base, instr.offset))
                elif isinstance(instr, Branch):
                    instrs.append((_BRANCH, instr.cond, instr.if_true, instr.if_false))
                elif isinstance(instr, Jump):
                    instrs.append((_JUMP, instr.target))
                elif isinstance(instr, Ret):
                    instrs.append((_RET, instr.value))
                else:
                    raise SimulationError(f"cannot decode {instr!r}")
                next_addr += 4
            decoded[label] = instrs
            first_line = start_addr // line_bytes
            last_line = max(start_addr, next_addr - 4) // line_bytes
            block_lines[label] = [l * line_bytes for l in range(first_line, last_line + 1)]
        return decoded, block_lines

    # -- execution --------------------------------------------------------------

    def run(
        self,
        cfg: CFG,
        inputs: dict[str, list] | None = None,
        registers: dict[str, float] | None = None,
        mode: int | None = None,
        schedule: dict[Edge, int] | None = None,
        initial_mode: int | None = None,
        max_steps: int = 200_000_000,
        trace: list | None = None,
        record: ExecutionStream | None = None,
    ) -> RunResult:
        """Execute a program.

        Args:
            cfg: the program to run (validated IR).
            inputs: array name -> initial contents.
            registers: initial register values (program parameters).
            mode: run entirely at this mode index (profiling runs).
            schedule: edge -> mode index map (DVS-scheduled runs).  The
                synthetic entry edge may set the starting mode.
            initial_mode: starting mode when ``schedule`` is given (default:
                fastest).  Mutually exclusive with ``mode``.
            max_steps: safety cap on executed instructions.
            trace: optional list that receives a ``(wall_time_s, label,
                mode)`` tuple at every block entry — the timeline data
                :mod:`repro.simulator.trace` analyzes.  Tracing costs one
                append per block execution; leave None for full speed.
            record: an empty :class:`ExecutionStream` to fill with this
                run's block sequence and cache outcomes, for
                :meth:`replay` at other modes.

        Returns:
            a :class:`RunResult`.
        """
        if not observe.enabled():
            return self._run(cfg, inputs, registers, mode, schedule,
                             initial_mode, max_steps, trace, record)
        with observe.span("simulator.run", program=cfg.name,
                          scheduled=schedule is not None) as sp:
            result = self._run(cfg, inputs, registers, mode, schedule,
                               initial_mode, max_steps, trace, record)
            total_cycles = (result.overlap_cycles + result.dependent_cycles
                            + result.cache_cycles + result.dmiss_sync_cycles
                            + result.ifetch_cycles)
            sp.set(instructions=result.instructions, cycles=total_cycles)
        observe.add("simulator.runs")
        observe.add("simulator.instructions", result.instructions)
        observe.add("simulator.cycles", total_cycles)
        observe.add("simulator.mem_misses", result.mem_misses)
        observe.add("simulator.mode_transitions", result.mode_transitions)
        for key, value in result.cache_stats.items():
            observe.add(f"simulator.cache.{key}", value)
        perf_stats = self.last_fastpath_stats
        if perf_stats.get("enabled"):
            observe.add("perf.blocks.fast", perf_stats["fast_blocks"])
            observe.add("perf.blocks.slow", perf_stats["slow_blocks"])
            observe.add("perf.blocks.bailed", perf_stats["bails"])
            observe.add("perf.loop.entries", perf_stats["loop_entries"])
            observe.add("perf.loop.fast_iterations", perf_stats["loop_iterations"])
        observe.record("simulator.run_wall_s", sp.elapsed_s)
        if sp.elapsed_s > 0:
            observe.gauge("simulator.cycles_per_sec", total_cycles / sp.elapsed_s)
        return result

    def _run(
        self,
        cfg: CFG,
        inputs: dict[str, list] | None,
        registers: dict[str, float] | None,
        mode: int | None,
        schedule: dict[Edge, int] | None,
        initial_mode: int | None,
        max_steps: int,
        trace: list | None,
        record: ExecutionStream | None = None,
    ) -> RunResult:
        # The uninstrumented interpreter loop; run() wraps it with the
        # span/counter layer so the hot loop itself stays untouched.
        current_mode, schedule = self._start_mode(cfg, mode, schedule,
                                                  initial_mode)
        entry_edge = (ENTRY_EDGE_SOURCE, cfg.entry)

        decoded, block_lines = self._decode(cfg)
        memory = DataMemory(cfg.data_size() + cfg.element_size, cfg.element_size)
        for name, values in (inputs or {}).items():
            base, length = cfg.arrays[name]
            if len(values) > length:
                raise SimulationError(
                    f"input for {name!r} has {len(values)} elements, array holds {length}"
                )
            memory.write_array(base, values)

        l2 = Cache(self.config.l2, name="l2")
        dcache = CacheHierarchy(self.config.l1d, l2, name="d")
        icache = CacheHierarchy(self.config.l1i, l2, name="i")

        # ---- fast-path setup (repro.perf) -----------------------------------
        use_fast = self.fastpath
        pf = None
        fast_fns = None
        fast_consts = None
        loop_ok: frozenset = frozenset()
        fast_blocks = 0
        slow_blocks = 0
        bails = 0
        loop_entries = 0
        loop_iterations = 0
        if use_fast:
            from repro.perf.engine import fastpath_disabled_env, program_fast

            if fastpath_disabled_env():
                use_fast = False
            else:
                pf = program_fast(self, cfg)
                fast_fns = pf.compiled()
                fast_consts = pf.consts(current_mode)
                if trace is None:
                    loop_ok = pf.loop_headers_disjoint(schedule)
                _st = [0.0] * 10
        if pf is not None:
            tables = pf.timing
        else:
            tables = TimingTables(
                {label: blk.instructions for label, blk in cfg.blocks.items()},
                block_lines, self.config, self.mode_table)
        bids = tables.index
        mode_consts, programs = tables.table(current_mode)
        timing = TimingModel(self.config, mode_consts)
        time_block = timing.block
        pending = timing.pending
        miss_done = 0.0
        switch = _ModeSwitch(self, tables, timing,
                             pf.consts if fast_fns is not None else None,
                             current_mode)

        # Recording (for replays): one code per block execution, odd when
        # an access missed L1, whose outcome codes then follow in order.
        rec = rec_outs = None
        if record is not None:
            if record.blocks or record.base is not None:
                raise SimulationError("record needs an empty ExecutionStream")
            rec = record.blocks.append
            rec_outs = record.outcomes

        regs: dict[str, float] = dict(registers or {})
        now = 0.0
        # Cycle classes of blocks committed from folded deltas; the timing
        # model counts the rest.
        dependent_cycles = 0
        cache_cycles = 0
        ifetch_cycles = 0
        instructions = 0
        # Run-level DRAM energy: compensated (Neumaier) accumulator state.
        mem_s = 0.0
        mem_c = 0.0

        # Per-label accounting: [count, time_s, time_comp, e_nj, e_comp].
        # Time/energy use compensated summation (see module docstring);
        # BlockStats are materialized from these at the end of the run.
        acct: dict[str, list] = {label: [0, 0.0, 0.0, 0.0, 0.0] for label in cfg.blocks}
        edge_counts: dict[Edge, int] = {}
        path_counts: dict[tuple[str, str, str], int] = {}

        label = cfg.entry
        prev_block = ENTRY_EDGE_SOURCE
        edge_counts[entry_edge] = 1
        return_value: float | None = None
        finished = False

        mem_read = memory.read
        mem_write = memory.write
        dlevel = dcache.level
        ilevel = icache.level

        dl1 = dcache.l1
        il1 = icache.l1
        dsets = dl1.sets
        isets = il1.sets
        cells = memory.cells

        while not finished:
            if trace is not None:
                trace.append((now, label, current_mode))
            next_label: str | None = None
            fast_committed = False

            if fast_fns is not None and not pending and now >= miss_done:
                # -- steady-state loop fast-forward: stay in compiled code
                # across back-edges, committing identical per-block deltas.
                if label in loop_ok:
                    lf = pf.loop_fn(label, current_mode)
                    if lf is not None:
                        _st[0] = now
                        _st[1] = instructions
                        _st[2] = dependent_cycles
                        _st[3] = cache_cycles
                        _st[4] = ifetch_cycles
                        _st[5] = dl1.hits
                        _st[6] = il1.hits
                        _st[7] = max_steps
                        _st[8] = 0
                        _st[9] = 0
                        loop_entries += 1
                        try:
                            res = lf(regs, cells, dsets, isets, acct,
                                     edge_counts, path_counts, _st, prev_block,
                                     rec)
                        except Exception:
                            res = None
                        if res is not None:
                            now = _st[0]
                            instructions = _st[1]
                            dependent_cycles = _st[2]
                            cache_cycles = _st[3]
                            ifetch_cycles = _st[4]
                            dl1.hits = _st[5]
                            il1.hits = _st[6]
                            loop_iterations += _st[8]
                            fast_blocks += _st[9]
                            if instructions > max_steps:
                                raise SimulationError(f"exceeded max_steps={max_steps}")
                            cur, prev2, nxt = res
                            if nxt is None:
                                # Bailed mid-loop after >= 1 committed block:
                                # resume the interpreter exactly there.
                                label = cur
                                prev_block = prev2
                                continue
                            # Clean exit: run the shared edge tail below for
                            # the (cur -> nxt) transition the loop left on.
                            label = cur
                            prev_block = prev2
                            next_label = nxt
                            fast_committed = True

                if not fast_committed:
                    # -- block-delta memoization: re-execute only the data
                    # arithmetic; replay timing/energy/stat deltas.
                    fn = fast_fns.get(label)
                    if fn is not None:
                        try:
                            nxt = fn(regs, cells, dsets, isets)
                        except Exception:
                            nxt = None
                        if nxt is None:
                            bails += 1
                        else:
                            dt, de, n_i, n_dep, n_cc, n_ic, n_d, n_l = fast_consts[label]
                            a = acct[label]
                            a[0] += 1
                            s = a[1]
                            t = s + dt
                            a[2] += (s - t) + dt if s >= dt else (dt - t) + s
                            a[1] = t
                            s = a[3]
                            t = s + de
                            a[4] += (s - t) + de if s >= de else (de - t) + s
                            a[3] = t
                            now = now + dt
                            instructions += n_i
                            if instructions > max_steps:
                                raise SimulationError(f"exceeded max_steps={max_steps}")
                            dependent_cycles += n_dep
                            cache_cycles += n_cc
                            ifetch_cycles += n_ic
                            dl1.hits += n_d
                            il1.hits += n_l
                            fast_blocks += 1
                            if rec is not None:
                                rec(bids[label] << 1)
                            next_label = nxt
                            fast_committed = True

            if not fast_committed:
                # -- reference interpretation of one block execution:
                # functional half (data and cache accesses), then the
                # shared timing model over the access outcomes.
                slow_blocks += 1
                bid = bids[label]
                outs = [ilevel(line_addr) for line_addr in block_lines[label]]
                for op in decoded[label]:
                    instructions += 1
                    kind = op[0]
                    if kind == _BINOP:
                        _, fn, dst, lhs, rhs = op
                        regs[dst] = fn(regs[lhs], regs[rhs])
                    elif kind == _CONST:
                        regs[op[1]] = op[2]
                    elif kind == _LOAD:
                        _, dst, basereg, offset = op
                        address = int(regs[basereg]) + offset
                        outs.append(dlevel(address))
                        regs[dst] = mem_read(address)
                    elif kind == _STORE:
                        _, src, basereg, offset = op
                        address = int(regs[basereg]) + offset
                        outs.append(dlevel(address))
                        mem_write(address, regs[src])
                    elif kind == _MOVE:
                        regs[op[1]] = regs[op[2]]
                    elif kind == _UNOP:
                        _, fn, dst, src = op
                        regs[dst] = fn(regs[src])
                    elif kind == _BRANCH:
                        _, cond, if_true, if_false = op
                        next_label = if_true if regs[cond] else if_false
                    elif kind == _JUMP:
                        next_label = op[1]
                    else:  # _RET
                        value = op[1]
                        return_value = regs[value] if value is not None else None
                        finished = True

                    if instructions > max_steps:
                        raise SimulationError(f"exceeded max_steps={max_steps}")

                bt, e_local, m_local, _ = time_block(programs[bid], outs, 0, now)
                miss_done = timing.miss_done
                if rec is not None:
                    if any(outs):
                        rec(bid << 1 | 1)
                        rec_outs.extend(outs)
                    else:
                        rec(bid << 1)

                # -- per-block commit: one wall-time addition plus
                # compensated time/energy additions (the same operations a
                # fast-path replay performs with its memoized deltas).
                now = now + bt
                a = acct[label]
                a[0] += 1
                s = a[1]
                t = s + bt
                a[2] += (s - t) + bt if s >= bt else (bt - t) + s
                a[1] = t
                s = a[3]
                t = s + e_local
                a[4] += (s - t) + e_local if s >= e_local else (e_local - t) + s
                a[3] = t
                if m_local:
                    s = mem_s
                    t = s + m_local
                    mem_c += (s - t) + m_local if s >= m_local else (m_local - t) + s
                    mem_s = t

                if finished:
                    break

                if next_label is None:
                    raise SimulationError(f"block {label!r} fell through")

            edge = (label, next_label)
            edge_counts[edge] = edge_counts.get(edge, 0) + 1
            triple = (prev_block, label, next_label)
            path_counts[triple] = path_counts.get(triple, 0) + 1

            if edge in schedule:
                switched = switch(schedule[edge])
                if switched is not None:
                    st, programs, fast_consts = switched
                    now += st
                    current_mode = switch.mode

            prev_block = label
            label = next_label

        self.last_fastpath_stats = {
            "enabled": int(fast_fns is not None),
            "fast_blocks": fast_blocks,
            "slow_blocks": slow_blocks,
            "bails": bails,
            "loop_entries": loop_entries,
            "loop_iterations": loop_iterations,
        }

        cache_stats = dcache.stats()
        cache_stats.update({f"i_{k}": v for k, v in icache.stats().items()})
        result = self._result(
            acct.items(), timing, switch,
            return_value=return_value,
            wall_time_s=now,
            memory_energy_nj=mem_s + mem_c,
            instructions=instructions,
            edge_counts=edge_counts,
            path_counts=path_counts,
            cache_stats=cache_stats,
            dependent_cycles=dependent_cycles,
            cache_cycles=cache_cycles,
            ifetch_cycles=ifetch_cycles,
            memory=memory,
        )
        if record is not None:
            record.cfg = cfg
            record.config = self.config
            record.base = StreamBase.of(result)
        return result

    def _start_mode(self, cfg: CFG, mode: int | None,
                    schedule: dict[Edge, int] | None,
                    initial_mode: int | None) -> tuple[int, dict[Edge, int]]:
        """Validate a run's mode arguments; returns (starting mode,
        schedule), the schedule ``{}`` for a fixed-mode run.

        The entry-edge mode applies before anything executes, with no
        transition cost: it is the a-priori setting, as in the paper.
        """
        if mode is not None and schedule is not None:
            raise ScheduleError("pass either a fixed mode or a schedule, not both")
        if schedule is not None:
            for edge, m in schedule.items():
                if not 0 <= m < len(self.mode_table):
                    raise ScheduleError(f"schedule maps {edge} to invalid mode {m}")
        current_mode = (
            mode
            if mode is not None
            else (initial_mode if initial_mode is not None else len(self.mode_table) - 1)
        )
        if not 0 <= current_mode < len(self.mode_table):
            raise ScheduleError(f"invalid mode index {current_mode}")
        schedule = schedule or {}
        return schedule.get((ENTRY_EDGE_SOURCE, cfg.entry), current_mode), schedule

    def _result(self, acct_items, timing: TimingModel, switch: _ModeSwitch,
                *, dependent_cycles: int, cache_cycles: int,
                ifetch_cycles: int, **fields) -> RunResult:
        """Assemble a RunResult: block totals from the per-block
        compensated accumulators, cycle classes from the timing model plus
        the caller's folded counts, DVS accounting from the mode-sets."""
        from repro.perf.accum import NeumaierSum

        cpu_total = NeumaierSum()
        block_stats: dict[str, BlockStats] = {}
        for blabel, a in acct_items:
            e_nj = a[3] + a[4]
            block_stats[blabel] = BlockStats(count=a[0], time_s=a[1] + a[2],
                                             cpu_energy_nj=e_nj)
            cpu_total.add(e_nj)
        cpu_total.add(switch.energy_nj)
        return RunResult(
            cpu_energy_nj=cpu_total.value,
            block_stats=block_stats,
            overlap_cycles=timing.overlap,
            dependent_cycles=timing.dependent + dependent_cycles,
            cache_cycles=timing.cache_cycles + cache_cycles,
            dmiss_sync_cycles=timing.dmiss_sync,
            ifetch_cycles=timing.ifetch + ifetch_cycles,
            mem_misses=timing.mem_misses,
            t_invariant_s=timing.mem_misses * self.config.memory_latency_s,
            gated_wait_s=timing.gated_wait,
            mode_transitions=switch.transitions,
            modeset_executions=switch.executions,
            transition_energy_nj=switch.energy_nj,
            transition_time_s=switch.time_s,
            final_mode=switch.mode,
            **fields,
        )

    # -- replay -----------------------------------------------------------------

    def replay(
        self,
        stream: ExecutionStream,
        mode: int | None = None,
        *,
        schedule: dict[Edge, int] | None = None,
        initial_mode: int | None = None,
    ) -> RunResult:
        """Time a recorded run under a fixed mode or a schedule, without
        executing it.

        Control flow, data and cache contents do not depend on the
        operating point (the paper's assumption 1 and its asynchronous
        memory), and a mode-set changes only timing, so the block sequence
        and access outcomes a recorded run left in ``stream`` are those of
        a run at any mode or under any schedule.  The replay feeds them
        through the same timing model as a live run: a block recorded
        all-L1 is committed from its folded delta when nothing is pending
        and no miss is outstanding, every other execution goes through
        :class:`~repro.simulator.timing.TimingModel`, and the mode-set on a
        scheduled edge executes through the same switch as in a live run.
        The result is bit-identical to ``run(cfg, mode=mode)`` or
        ``run(cfg, schedule=schedule, initial_mode=initial_mode)`` with the
        stream's inputs.

        Args:
            stream: filled by a ``run(..., record=stream)`` on a machine
                with this machine's configuration, or loaded from its
                artifact.
            mode: the fixed mode index to time the run at.
            schedule: edge -> mode index map; exclusive with ``mode``.
            initial_mode: starting mode under ``schedule`` (default:
                fastest); the synthetic entry edge may override it.

        Raises:
            SimulationError: the stream was never recorded, or does not
                describe its recorded run (a corrupt stream).
            ScheduleError: invalid mode arguments, as for :meth:`run`.
        """
        if stream.base is None:
            raise SimulationError("replay of a stream that was never recorded")
        if not observe.enabled():
            return self._replay(stream, mode, schedule, initial_mode)
        with observe.span("simulator.replay", program=stream.cfg.name,
                          mode=mode, scheduled=schedule is not None):
            result = self._replay(stream, mode, schedule, initial_mode)
        observe.add("simulator.replays")
        observe.add("simulator.replay_blocks", len(stream.blocks))
        if schedule is not None:
            observe.add("simulator.scheduled_replays")
            observe.add("simulator.replay_transitions", result.mode_transitions)
        return result

    def _replay(self, stream: ExecutionStream, mode: int | None,
                schedule: dict[Edge, int] | None,
                initial_mode: int | None) -> RunResult:
        from repro.perf.engine import program_fast

        base = stream.base
        cfg = stream.cfg
        if stream.config != self.config:
            raise SimulationError(
                "replay on a machine whose configuration differs from the "
                "recording's")
        current_mode, schedule = self._start_mode(cfg, mode, schedule,
                                                  initial_mode)
        pf = program_fast(self, cfg)
        tables = pf.timing
        labels = tables.labels
        index = tables.index
        mode_consts, programs = tables.table(current_mode)
        timing = TimingModel(self.config, mode_consts)
        time_block = timing.block
        pending = timing.pending
        all_l1 = tables.all_l1

        # Per block id: [count, time_s, time_comp, e_nj, e_comp, folded].
        acct = [[0, 0.0, 0.0, 0.0, 0.0, 0] for _ in labels]
        folds: dict[int, list] = {}

        def fold_table(m: int) -> list:
            # Indexed by stream code: (dt, de, acct) at the even (all-L1)
            # codes, None at the odd ones.
            table = folds.get(m)
            if table is None:
                table = [None] * (2 * len(labels))
                for bid, c in enumerate(pf.consts(m).values()):
                    table[bid << 1] = (c[0], c[1], acct[bid])
                folds[m] = table
            return table

        fold = fold_table(current_mode)
        switch = _ModeSwitch(self, tables, timing, fold_table, current_mode)
        # Indexed by stream code: the block's scheduled out-edges as
        # {successor's stream codes: mode}, None for a block without any.
        out_edges: list = [None] * (2 * len(labels))
        for (src, dst), m in schedule.items():
            if src in index and dst in index:
                s, d = index[src] << 1, index[dst] << 1
                targets = out_edges[s] or {}
                targets[d] = targets[d | 1] = m
                out_edges[s] = out_edges[s | 1] = targets

        outs = stream.outcomes
        opos = 0
        now = 0.0
        miss_done = 0.0
        mem_s = 0.0
        mem_c = 0.0
        unclean = 0  # all-L1 executions the replay's state forbade folding
        targets = None  # the previous block's scheduled out-edges
        for code in stream.blocks:
            if targets is not None:
                m = targets.get(code)
                if m is not None:
                    switched = switch(m)
                    if switched is not None:
                        st, programs, fold = switched
                        now += st
            targets = out_edges[code]
            f = fold[code]
            if f is not None and not pending and now >= miss_done:
                dt, de, a = f
                a[5] += 1
                s = a[1]
                t = s + dt
                a[2] += (s - t) + dt if s >= dt else (dt - t) + s
                a[1] = t
                s = a[3]
                t = s + de
                a[4] += (s - t) + de if s >= de else (de - t) + s
                a[3] = t
                now = now + dt
                continue
            bid = code >> 1
            if code & 1:
                bt, e_local, m_local, opos = time_block(programs[bid], outs,
                                                        opos, now)
            else:
                unclean += 1
                bt, e_local, m_local, _ = time_block(programs[bid], all_l1[bid],
                                                     0, now)
            miss_done = timing.miss_done
            now = now + bt
            a = acct[bid]
            a[0] += 1
            s = a[1]
            t = s + bt
            a[2] += (s - t) + bt if s >= bt else (bt - t) + s
            a[1] = t
            s = a[3]
            t = s + e_local
            a[4] += (s - t) + e_local if s >= e_local else (e_local - t) + s
            a[3] = t
            if m_local:
                s = mem_s
                t = s + m_local
                mem_c += (s - t) + m_local if s >= m_local else (m_local - t) + s
                mem_s = t

        # Folded executions' cycle classes are counts of cycles, the same
        # at every mode.
        consts = pf.consts(switch.mode)
        dependent_cycles = cache_cycles = ifetch_cycles = folded_total = 0
        for label, a in zip(labels, acct):
            folded = a[5]
            if folded:
                c = consts[label]
                dependent_cycles += folded * c[3]
                cache_cycles += folded * c[4]
                ifetch_cycles += folded * c[5]
                a[0] += folded
                folded_total += folded
        self.last_replay_stats = {
            "blocks": len(stream.blocks),
            "folded": folded_total,
            "timed": len(stream.blocks) - folded_total,
            "all_l1_timed": unclean,
        }
        result = self._result(
            zip(labels, acct), timing, switch,
            return_value=base.return_value,
            wall_time_s=now,
            memory_energy_nj=mem_s + mem_c,
            instructions=base.instructions,
            edge_counts=dict(base.edge_counts),
            path_counts=dict(base.path_counts),
            cache_stats=dict(base.cache_stats),
            dependent_cycles=dependent_cycles,
            cache_cycles=cache_cycles,
            ifetch_cycles=ifetch_cycles,
            memory=base.memory.copy() if base.memory is not None else None,
        )
        # Mode-independent quantities must agree with the recording.
        if (opos != len(outs)
                or result.cache_cycles != base.cache_cycles
                or result.ifetch_cycles != base.ifetch_cycles
                or result.dmiss_sync_cycles != base.dmiss_sync_cycles
                or result.mem_misses != base.mem_misses
                or tuple(a[0] for a in acct) != base.block_counts):
            raise SimulationError(
                f"{cfg.name}: replay diverged from its recorded run")
        return result
