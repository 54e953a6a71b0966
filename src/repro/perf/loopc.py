"""Loop compiler: steady-state fast-forwarding of natural loops.

Once a loop's blocks are individually fast (see :mod:`repro.perf.blockc`),
the remaining per-iteration overhead is the machine's dispatcher: a dict
lookup, a call, a consts unpack and the edge bookkeeping per block.  For a
steady-state loop — back-edge returning to an already-seen (label, mode,
cache signature) — this module compiles the *entire* loop body into one
generated function: registers live in Python locals across iterations,
per-block deltas are committed inline (the identical float operations the
dispatcher performs, so totals stay bit-exact), and edge/path counts are
updated as the compiled control flow runs.  The dispatcher calls the loop
function once per loop *entry* and fast-forwards every remaining iteration
without returning to Python-interpreting the program.

Preconditions (checked by the dispatcher before entry): fast path active,
pending set empty, no outstanding miss, no trace callback, and no schedule
entry on any loop-internal edge (mode-sets must go through the
dispatcher).  Inside, every access must stay L1-resident; any miss — or
any Python exception — bails back to the dispatcher *at the failing
block*, with all previously committed state intact:

* each block's body runs under a ``try`` whose handler converts a mid-body
  failure into a clean bail (stores buffer until commit, register
  writeback is deferred, LRU refreshes are idempotent);
* a bail before the first committed block returns None so the caller falls
  back to the per-block path (otherwise a header whose residency check
  fails would re-enter the loop function forever).

The return protocol is ``(label, prev, next)``: ``next is None`` means
"resume the interpreter at ``label``" (bail); otherwise the loop exited
cleanly after executing ``label`` whose successor ``next`` leaves the loop
— the dispatcher then runs its shared edge tail (edge/path counts and any
scheduled mode-set) for that transition.
"""

from __future__ import annotations

from repro.perf.blockc import CODEGEN_GLOBALS, RegEnv, emit_block

#: Sentinel for loop registers that are defined only inside the loop and
#: may not have been assigned yet on a given invocation.  Such registers
#: are never read before being written (by construction — see
#: LoopRegEnv), so the sentinel can never flow into program values; it
#: only guards the exit writeback.
_UNDEF = object()

_LOOP_GLOBALS = dict(CODEGEN_GLOBALS)
_LOOP_GLOBALS["_UNDEF"] = _UNDEF


class LoopRegEnv(RegEnv):
    """Register naming scoped to a whole loop function.

    Canonical locals (``g<n>``) persist across blocks and iterations;
    within one block, writes go to temps and are bound to the canonical
    local only at the block's commit (a bail must leave registers as of
    the last completed block).

    A register read through its canonical local before any definition in
    the *same* block is ``strict``: it must exist at loop entry, so the
    prologue loads it with a plain dict access (KeyError = bail, nothing
    mutated yet).  Registers only ever defined-before-read start as the
    ``_UNDEF`` sentinel and are written back guarded.
    """

    def __init__(self) -> None:
        super().__init__()
        self.canon: dict[str, str] = {}
        self.strict: set[str] = set()
        self.loop_defs: set[str] = set()
        self._override: dict[str, str] = {}
        self._block_defs: dict[str, str] = {}

    def begin_block(self) -> None:
        self._override = {}
        self._block_defs = {}

    def canonical(self, reg: str) -> str:
        name = self.canon.get(reg)
        if name is None:
            name = f"g{len(self.canon)}"
            self.canon[reg] = name
        return name

    def read(self, reg: str) -> str:
        name = self._override.get(reg)
        if name is None:
            self.strict.add(reg)
            name = self.canonical(reg)
        return name

    def write(self, reg: str) -> str:
        name = self.temp()
        self._override[reg] = name
        self._block_defs[reg] = name
        self.loop_defs.add(reg)
        return name

    def commit_binds(self) -> list[tuple[str, str]]:
        """(canonical, temp) pairs for the current block's definitions."""
        return [(self.canonical(reg), t) for reg, t in self._block_defs.items()]


def _loop_live_in(body_labels, blocks):
    """Registers that may be read before definition, starting at the header.

    Classic backward liveness restricted to the loop subgraph (edges
    leaving the loop contribute nothing: the exit writeback publishes all
    definitions).  The header's live-in set is exactly the registers the
    loop prologue must load from the register file; everything else is
    defined before any possible read, so the ``_UNDEF`` sentinel can never
    flow into a computed value.
    """
    body_set = set(body_labels)
    gen = {}
    kill = {}
    succs = {}
    for label in body_labels:
        g: set[str] = set()
        k: set[str] = set()
        for instr in blocks[label]:
            for use in instr.uses():
                if use not in k:
                    g.add(use)
            d = instr.defs()
            if d is not None:
                k.add(d)
        gen[label] = g
        kill[label] = k
        term = blocks[label][-1] if blocks[label] else None
        targets = term.targets() if term is not None and term.is_terminator else ()
        succs[label] = [t for t in targets if t in body_set]
    live_in = {label: set(gen[label]) for label in body_labels}
    changed = True
    while changed:
        changed = False
        for label in body_labels:
            out: set[str] = set()
            for succ in succs[label]:
                out |= live_in[succ]
            new = gen[label] | (out - kill[label])
            if new != live_in[label]:
                live_in[label] = new
                changed = True
    return live_in[body_labels[0]]


def compile_loop(header, body_labels, blocks, block_lines, config,
                 element_size, consts, codes):
    """Compile one natural loop (mode-independent code).

    Args:
        header: loop header label (``body_labels[0]``).
        body_labels: loop body labels, header first, deterministic order.
        blocks: label -> instruction list (whole program).
        block_lines: label -> I-line byte addresses.
        config: machine configuration.
        element_size: program memory cell width.
        consts: label -> folded per-execution delta tuple of any mode
            (from :func:`repro.simulator.timing.fold_block`); only its
            mode-independent counts are compiled in.
        codes: label -> the block's stream code, passed to ``rec`` for
            every committed block when the run is recording.

    Returns:
        the loop function, or None when any body block is not compilable.
        Signature: ``fn(regs, cells, dsets, isets, acct, edge_counts,
        path_counts, st, prev, rec)`` where ``st`` is the dispatcher's
        packed state list and ``rec`` an append callable or None; see the
        module docstring for the return protocol.  Its first ``2 *
        len(body_labels)`` defaults are placeholders for each body block's
        folded ``dt``/``de`` (in body order): bind a mode's floats by
        building a function over the same code with those defaults
        replaced (:meth:`repro.perf.engine.ProgramFast.loop_fn`).
    """
    body_set = set(body_labels)
    index = {label: i for i, label in enumerate(body_labels)}
    # In-loop predecessors per block (for static path-triple counters).
    in_preds: dict[str, list[str]] = {label: [] for label in body_labels}
    for label in body_labels:
        instrs = blocks[label]
        term = instrs[-1] if instrs else None
        if term is not None and term.is_terminator:
            for tgt in term.targets():
                if tgt in body_set:
                    in_preds[tgt].append(label)
    env = LoopRegEnv()
    emitted = {}
    for i, label in enumerate(body_labels):
        env.begin_block()
        eb = emit_block(blocks[label], block_lines[label], config.l1i,
                        config.l1d, element_size, env, "raise Bail",
                        "                ", uniq=str(i))
        if eb is None:
            return None
        emitted[label] = (eb, env.commit_binds())

    # In-body edges get default-arg key tuples plus local batch counters;
    # the dicts see a zero placeholder at first traversal (preserving the
    # reference's first-encounter insertion order) and one bulk update at
    # function exit.
    edge_ids: dict[tuple[str, str], int] = {}

    def edge_id(src: str, dst: str) -> int:
        key = (src, dst)
        k = edge_ids.get(key)
        if k is None:
            k = len(edge_ids)
            edge_ids[key] = k
        return k

    lines: list[str] = []
    defaults: list[str] = []

    for i, label in enumerate(body_labels):
        eb, binds = emitted[label]
        _, _, n_i, n_dep, n_cc, n_ic, n_d, n_l = consts[label]
        defaults.append(f"_DT{i}=0.0")
        defaults.append(f"_DE{i}=0.0")
        cond = "if" if i == 0 else "elif"
        lines.append(f"        {cond} _lbl == {i}:")
        lines.append("            try:")
        lines.extend(eb.body)
        lines.append("            except Exception:")
        lines.append(f"                _res = ({label!r}, _prev, None) if _nb else None")
        lines.append("                break")
        for idx_local, val_local in eb.stores:
            lines.append(f"            _cells[{idx_local}] = {val_local}")
        for gname, tname in binds:
            lines.append(f"            {gname} = {tname}")
        # Accounting commit: the same operation sequence the dispatcher
        # performs when replaying this block's delta.
        lines.append(f"            _now = _now + _DT{i}")
        lines.append(f"            _c{i} += 1")
        lines.append(f"            _s = _ts{i}; _t = _s + _DT{i}")
        lines.append(
            f"            _tc{i} += (_s - _t) + _DT{i} if _s >= _DT{i}"
            f" else (_DT{i} - _t) + _s"
        )
        lines.append(f"            _ts{i} = _t")
        lines.append(f"            _s = _es{i}; _t = _s + _DE{i}")
        lines.append(
            f"            _ec{i} += (_s - _t) + _DE{i} if _s >= _DE{i}"
            f" else (_DE{i} - _t) + _s"
        )
        lines.append(f"            _es{i} = _t")
        lines.append(
            f"            _ni += {n_i}; _dep += {n_dep}; _cc += {n_cc};"
            f" _ic += {n_ic}; _dh += {n_d}; _ih += {n_l}"
        )
        lines.append("            _nb += 1")
        lines.append(f"            if _rec is not None: _rec({codes[label]})")
        if i == 0:
            lines.append("            _it += 1")

        def transition(ind: str, tgt: str) -> list[str]:
            if tgt in body_set:
                k = edge_id(label, tgt)
                out = [
                    f"{ind}if not _ne{k}:",
                    f"{ind}    _EC.setdefault(_E{k}, 0)",
                    f"{ind}_ne{k} += 1",
                ]
                # Path triple: the previous block is one of the loop-internal
                # predecessors (a static literal → a plain counter) except on
                # the first iteration, where it is whatever entered the loop.
                preds = in_preds[label]
                for j, pred in enumerate(preds):
                    kw = "if" if j == 0 else "elif"
                    out.append(f"{ind}{kw} _prev == {pred!r}:")
                    out.append(f"{ind}    if not _np{k}_{j}:")
                    out.append(f"{ind}        _PC.setdefault(_P{k}_{j}, 0)")
                    out.append(f"{ind}    _np{k}_{j} += 1")
                out.append(f"{ind}else:" if preds else f"{ind}if 1:")
                out.append(f"{ind}    _p = (_prev, {label!r}, {tgt!r})")
                out.append(f"{ind}    _PC[_p] = _PC.get(_p, 0) + 1")
                out.extend([
                    f"{ind}_prev = {label!r}",
                    f"{ind}if _ni > _ms:",
                    f"{ind}    _res = ({tgt!r}, _prev, None)",
                    f"{ind}    break",
                    f"{ind}_lbl = {index[tgt]}",
                    f"{ind}continue",
                ])
                return out
            return [
                f"{ind}_res = ({label!r}, _prev, {tgt!r})",
                f"{ind}break",
            ]

        term = eb.term
        if term[0] == "jump":
            lines.extend(transition("            ", term[1]))
        else:
            _, cond_local, if_true, if_false = term
            lines.append(f"            if {cond_local}:")
            lines.extend(transition("                ", if_true))
            lines.append("            else:")
            lines.extend(transition("                ", if_false))

    counter_inits: list[str] = []
    flushes: list[str] = []
    for (src, dst), k in edge_ids.items():
        defaults.append(f"_E{k}=({src!r}, {dst!r})")
        counter_inits.append(f"    _ne{k} = 0")
        flushes.append(f"    if _ne{k}:")
        flushes.append(f"        _EC[_E{k}] = _EC.get(_E{k}, 0) + _ne{k}")
        for j, pred in enumerate(in_preds[src]):
            defaults.append(f"_P{k}_{j}=({pred!r}, {src!r}, {dst!r})")
            counter_inits.append(f"    _np{k}_{j} = 0")
            flushes.append(f"    if _np{k}_{j}:")
            flushes.append(
                f"        _PC[_P{k}_{j}] = _PC.get(_P{k}_{j}, 0) + _np{k}_{j}"
            )

    header_lines = [
        "def _loop(_regs, _cells, _DS, _IS, _acct, _EC, _PC, _st, _prev, _rec,",
        "          " + ", ".join(defaults) + ("," if defaults else "") + "):",
        "    _now = _st[0]; _ni = _st[1]; _dep = _st[2]; _cc = _st[3]",
        "    _ic = _st[4]; _dh = _st[5]; _ih = _st[6]; _ms = _st[7]",
        "    _it = 0; _nb = 0; _res = None",
    ]
    header_lines.extend(counter_inits)
    for i, label in enumerate(body_labels):
        header_lines.append(f"    _a{i} = _acct[{label!r}]")
        header_lines.append(
            f"    _c{i} = _a{i}[0]; _ts{i} = _a{i}[1]; _tc{i} = _a{i}[2];"
            f" _es{i} = _a{i}[3]; _ec{i} = _a{i}[4]"
        )
    # Register prologue: true loop-level live-ins load strictly (KeyError
    # = clean bail, nothing committed yet); registers always defined
    # before any possible read start as the sentinel.
    strict = _loop_live_in(body_labels, blocks) & set(env.canon)
    for reg in sorted(strict):
        header_lines.append(f"    {env.canonical(reg)} = _regs[{reg!r}]")
    for reg in sorted(set(env.canon) - strict):
        header_lines.append(f"    {env.canonical(reg)} = _UNDEF")
    header_lines.append("    _lbl = 0")
    header_lines.append("    while True:")

    footer = [
        "    if _res is None:",
        "        return None",
    ]
    footer.extend(flushes)
    footer.extend([
        "    _st[0] = _now; _st[1] = _ni; _st[2] = _dep; _st[3] = _cc",
        "    _st[4] = _ic; _st[5] = _dh; _st[6] = _ih",
        "    _st[8] = _it; _st[9] = _nb",
    ])
    for i, label in enumerate(body_labels):
        footer.append(
            f"    _a{i}[0] = _c{i}; _a{i}[1] = _ts{i}; _a{i}[2] = _tc{i};"
            f" _a{i}[3] = _es{i}; _a{i}[4] = _ec{i}"
        )
    for reg in sorted(env.loop_defs):
        g = env.canonical(reg)
        if reg in strict:
            footer.append(f"    _regs[{reg!r}] = {g}")
        else:
            footer.append(f"    if {g} is not _UNDEF:")
            footer.append(f"        _regs[{reg!r}] = {g}")
    footer.append("    return _res")

    source = "\n".join(header_lines + lines + footer)
    namespace = dict(_LOOP_GLOBALS)
    exec(compile(source, f"<perf:loop:{header}>", "exec"), namespace)
    fn = namespace["_loop"]
    fn.__perf_source__ = source  # debugging aid
    return fn
