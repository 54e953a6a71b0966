"""Per-layer self-time ledger, installed into the program from outside.

:func:`install` wraps the public entry point of every layer (the
:data:`TARGETS` table) in the running process.  Each wrapper times its
call on a per-thread stack, so a layer's *self time* is its wrapped time
minus the time of the wrapped calls nested inside it — ``Machine.run``
inside ``profile_program`` is charged to the simulator, not to profiling.
Small hooks record counts (simulator instructions, MILP size, cache
bytes) and every simulated return value, for the output oracle.

Every process writes its own ledger file: the main process when the
traced command returns, a forked pool worker from a multiprocessing
finalizer at its exit.  :func:`merge` adds the files up.

This module imports nothing from the program at import time, so the
bootstrap can time ``import repro.cli`` in a fresh interpreter first.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable


# -- count hooks: (ledger, enclosing stack, args, kwargs, result) ---------------

def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _on_compile(led, stack, args, kwargs, result) -> None:
    # Calls, not cache misses: which pool worker compiles a program first
    # depends on timing, the number of calls does not.
    led.count("lang.compiles")


#: Layers whose simulator runs are counted per caller.
_SIM_CALLERS = {"profiling.profile": "profiling.sim_runs",
                "profiling.params": "profiling.sim_runs",
                "verify.replay": "verify.sim_runs"}


def _on_run(led, stack, args, kwargs, result) -> None:
    led.count("simulator.runs")
    led.count("simulator.insns", result.instructions)
    for frame in reversed(stack):
        if frame[0] in _SIM_CALLERS:
            led.count(_SIM_CALLERS[frame[0]])
            break
    led.saw_return(_arg(args, kwargs, 1, "cfg").name, result.return_value)


def _on_codegen(led, stack, args, kwargs, result) -> None:
    led.count("perf.codegen_calls")


def _on_build(led, stack, args, kwargs, result) -> None:
    formulation = result[0]
    led.count("core.milp_vars", len(formulation.model.variables))
    led.count("core.milp_rows", len(formulation.model.constraints))
    led.count("core.edges_kept", len(formulation.independent_edges))


def _on_solve(led, stack, args, kwargs, result) -> None:
    led.count("solver.solves")
    led.count("solver.nodes", int(result.nodes))
    led.count("solver.iterations", int(result.iterations))


def _on_graph(led, stack, args, kwargs, result) -> None:
    led.count("runtime.tasks", len(result.tasks))


def _on_get(led, stack, args, kwargs, result) -> None:
    if result is None:
        led.count("runtime.cache_misses")
        return
    led.count("runtime.cache_hits")
    store, key = args[0], _arg(args, kwargs, 1, "key")
    led.count("runtime.cache_read_bytes", store.path_for(key).stat().st_size)


def _on_put(led, stack, args, kwargs, result) -> None:
    led.count("runtime.cache_write_bytes", os.stat(result).st_size)


def _on_journal(led, stack, args, kwargs, result) -> None:
    led.count("resilience.journal_records")


#: (layer, module, attribute path, count hook).  Times are reported as
#: ``<layer>_s``; several entry points may share a layer.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("lang.compile", "repro.workloads.suite", "compile_workload", _on_compile),
    ("simulator.run", "repro.simulator.machine", "Machine.run", _on_run),
    ("perf.codegen", "repro.perf.engine", "program_fast", _on_codegen),
    ("profiling.profile", "repro.profiling.profiler", "profile_program", None),
    ("profiling.params", "repro.profiling.params_extract", "extract_params",
     None),
    ("verify.replay", "repro.core.scheduler", "DVSOptimizer.verify", None),
    ("verify.certificate", "repro.verify.certificate", "verify_certificate",
     None),
    ("core.build", "repro.core.scheduler", "DVSOptimizer.build", _on_build),
    ("core.bound", "repro.core.analytical.savings", "savings_ratio_discrete",
     None),
    ("core.bound", "repro.core.continuous", "continuous_bound", None),
    ("core.optimize", "repro.core.scheduler", "DVSOptimizer.optimize", None),
    ("solver.solve", "repro.solver.model", "Model.solve", _on_solve),
    ("runtime.graph_build", "repro.runtime.dag", "build_task_graph", _on_graph),
    ("runtime.dispatch", "repro.runtime.executor", "run_graph", None),
    ("runtime.cache_get", "repro.runtime.cache", "ArtifactStore.get", _on_get),
    ("runtime.cache_put", "repro.runtime.cache", "ArtifactStore.put", _on_put),
    ("runtime.manifest", "repro.runtime.manifest", "write_manifest", None),
    ("runtime.manifest", "repro.runtime.manifest", "write_results", None),
    ("resilience.journal", "repro.resilience.journal", "SweepJournal.record",
     _on_journal),
    ("serve.parse", "repro.serve.protocol", "parse_request", None),
)

#: Every layer the ledger can charge time to, in report order.
#: ``trace.install`` is the tracing overhead of wrapping (module imports
#: the command itself might not have needed).
LAYERS = (("process.import",) + tuple(dict.fromkeys(t[0] for t in TARGETS))
          + ("trace.install",))


class Ledger:
    """Self times, counts and simulated return values of one process."""

    def __init__(self, directory: str, role: str = "main") -> None:
        self.directory = directory
        self.role = role
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.returns: dict[str, set] = defaultdict(set)
        self.top_s = 0.0  # wrapped time not nested in another wrapped call
        self._lock = threading.Lock()
        self._local = threading.local()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def charge(self, layer: str, seconds: float, top_s: float = 0.0) -> None:
        """Add ``seconds`` of self time; ``top_s`` is the elapsed time of
        a call not nested in another wrapped call."""
        with self._lock:
            self.self_s[layer] += seconds
            self.top_s += top_s

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def saw_return(self, program: str, value: Any) -> None:
        with self._lock:
            self.returns[program].add(value)

    def to_dict(self) -> dict[str, Any]:
        with self._lock:
            return {"pid": os.getpid(), "role": self.role,
                    "self_s": dict(self.self_s), "counts": dict(self.counts),
                    "returns": {k: sorted(v, key=repr)
                                for k, v in self.returns.items()},
                    "top_s": self.top_s}

    def dump(self, **extra: Any) -> None:
        path = os.path.join(self.directory, f"ledger-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump({**self.to_dict(), **extra}, handle)

    def _after_fork(self) -> None:
        """Start a pool worker's ledger empty and dump it at worker exit."""
        from multiprocessing import util

        self.__init__(self.directory, role="worker")
        util.Finalize(self, self.dump, exitpriority=0)


def wrap(led: Ledger, layer: str, fn: Callable,
         hook: Callable | None = None) -> Callable:
    """``fn`` charging its self time to ``layer`` of ``led``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = led.stack()
        frame = [layer, 0.0]  # layer, time of wrapped calls nested inside
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            led.charge(layer, elapsed - frame[1], 0.0 if stack else elapsed)
            if stack:
                stack[-1][1] += elapsed
        if hook is not None:
            hook(led, stack, args, kwargs, result)
        return result

    wrapper.__wrapped_by_ledger__ = True
    return wrapper


class Installation:
    """The patches :func:`install` made, so they can be undone exactly."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.patches: list[tuple[Any, str, Any]] = []  # (owner, name, original)

    def uninstall(self) -> list[str]:
        """Restore every original; returns the names still not restored.

        A module the command imported after :func:`install` may have
        bound a wrapper by name; those aliases are unwrapped too.
        """
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        for module in _program_modules(self.prefix):
            for name, value in list(vars(module).items()):
                if getattr(value, "__wrapped_by_ledger__", False):
                    setattr(module, name, value.__wrapped__)
        left = [f"{getattr(owner, '__name__', owner)}.{name}"
                for owner, name, original in self.patches
                if getattr(owner, name) is not original]
        return left + [f"{module.__name__}.{name}"
                       for module in _program_modules(self.prefix)
                       for name, value in vars(module).items()
                       if getattr(value, "__wrapped_by_ledger__", False)]


def _program_modules(prefix: str) -> list:
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == prefix or key.startswith(prefix + "."))]


def _resolve(module: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


def install(led: Ledger, targets=TARGETS, prefix: str = "repro") -> Installation:
    """Wrap every target in ``led``.

    A module-level function is replaced in its defining module and in
    every loaded ``prefix`` module that imported it by name; a method is
    replaced on its class.
    """
    from multiprocessing import util

    done = Installation(prefix)
    # Import every target first, so no alias is bound to a wrapper behind
    # the patch loop's back.
    resolved = [(layer, *_resolve(module, path), hook)
                for layer, module, path, hook in targets]
    for layer, owner, name, hook in resolved:
        original = getattr(owner, name)
        wrapper = wrap(led, layer, original, hook)
        owners = [owner]
        if isinstance(owner, type(sys)):
            owners += [m for m in _program_modules(prefix)
                       if m is not owner and getattr(m, name, None) is original]
        for target in owners:
            done.patches.append((target, name, original))
            setattr(target, name, wrapper)
    util.register_after_fork(led, Ledger._after_fork)
    return done


def merge(directory: str) -> dict[str, Any]:
    """Add up every ledger file in ``directory``.

    A pool worker only runs while a dispatching ``run_graph`` waits for
    it, so the worker's wrapped time is moved out of the dispatcher's
    self time into the worker's own layers.
    """
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    returns: dict[str, set] = defaultdict(set)
    mains = workers = 0
    restored = True
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("ledger-") and name.endswith(".json")):
            continue
        with open(os.path.join(directory, name)) as handle:
            doc = json.load(handle)
        for layer, seconds in doc["self_s"].items():
            self_s[layer] += seconds
        for key, value in doc["counts"].items():
            counts[key] += value
        for program, values in doc["returns"].items():
            returns[program].update(values)
        if doc["role"] == "worker":
            workers += 1
            self_s["runtime.dispatch"] -= doc["top_s"]
        else:
            mains += 1
            restored = restored and doc.get("restored", False)
    return {"self_s": dict(self_s), "counts": dict(counts),
            "returns": {k: sorted(v, key=repr) for k, v in returns.items()},
            "processes": mains, "workers": workers, "restored": restored}
