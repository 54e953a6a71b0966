import json
import multiprocessing
import sys
import time
import types
from dataclasses import dataclass

import pytest

import ledger


@dataclass
class _Run:
    instructions: int
    return_value: int


class _Cfg:
    name = "toy"


def _fake_program():
    """fakeprog.sim.Machine.run nested in fakeprog.prof.profile_program,
    and a second module that imported profile_program by name."""
    sim = types.ModuleType("fakeprog.sim")
    prof = types.ModuleType("fakeprog.prof")
    user = types.ModuleType("fakeprog.user")

    class Machine:
        def run(self, cfg, delay=0.03):
            time.sleep(delay)
            return _Run(instructions=1000, return_value=7)

    def profile_program(machine, cfg):
        time.sleep(0.02)
        return [machine.run(cfg), machine.run(cfg)]

    sim.Machine = Machine
    prof.profile_program = profile_program
    user.profile_program = profile_program  # "from fakeprog.prof import ..."
    modules = {"fakeprog.sim": sim, "fakeprog.prof": prof, "fakeprog.user": user}
    return modules, (
        ("simulator.run", "fakeprog.sim", "Machine.run", ledger._on_run),
        ("profiling.profile", "fakeprog.prof", "profile_program", None),
    )


@pytest.fixture
def fake(monkeypatch, tmp_path):
    modules, targets = _fake_program()
    for name, module in modules.items():
        monkeypatch.setitem(sys.modules, name, module)
    return modules, targets, ledger.Ledger(str(tmp_path))


def test_nested_calls_charge_self_time(fake):
    modules, targets, led = fake
    installation = ledger.install(led, targets, prefix="fakeprog")
    try:
        start = time.perf_counter()
        modules["fakeprog.user"].profile_program(modules["fakeprog.sim"].Machine(),
                                                 _Cfg())
        wall = time.perf_counter() - start
    finally:
        assert installation.uninstall() == []
    run_s = led.self_s["simulator.run"]
    profile_s = led.self_s["profiling.profile"]
    assert 0.06 <= run_s < 0.06 + 0.02          # two nested runs of 30 ms
    assert 0.02 <= profile_s < 0.02 + 0.02      # its own 20 ms, runs excluded
    assert led.top_s == pytest.approx(run_s + profile_s, rel=1e-9)
    assert led.top_s <= wall
    assert led.counts["simulator.runs"] == 2
    assert led.counts["simulator.insns"] == 2000
    assert led.counts["profiling.sim_runs"] == 2  # attributed to the caller
    assert led.returns == {"toy": {7}}


def test_uninstall_restores_every_alias(fake):
    modules, targets, led = fake
    originals = {name: dict(vars(module)) for name, module in modules.items()}
    run = modules["fakeprog.sim"].Machine.run
    installation = ledger.install(led, targets, prefix="fakeprog")
    assert modules["fakeprog.user"].profile_program is not \
        originals["fakeprog.user"]["profile_program"]
    assert modules["fakeprog.sim"].Machine.run is not run
    assert installation.uninstall() == []
    for name, module in modules.items():
        assert dict(vars(module)) == originals[name]
    assert modules["fakeprog.sim"].Machine.run is run


def test_exceptions_still_charge_and_unwind(fake):
    modules, targets, led = fake
    installation = ledger.install(led, targets, prefix="fakeprog")
    try:
        with pytest.raises(TypeError):
            modules["fakeprog.sim"].Machine().run(_Cfg(), delay="bad")
        assert led.stack() == []
        assert led.counts["simulator.runs"] == 0  # hooks see results only
    finally:
        installation.uninstall()


def _worker(module_name):
    sys.modules[module_name].Machine().run(_Cfg(), delay=0.0)


def test_forked_worker_writes_its_own_ledger(fake, tmp_path):
    modules, targets, led = fake
    installation = ledger.install(led, targets, prefix="fakeprog")
    try:
        led.count("simulator.runs", 5)  # the parent's counts stay in the parent
        child = multiprocessing.get_context("fork").Process(
            target=_worker, args=("fakeprog.sim",))
        child.start()
        child.join(30)
        assert not child.is_alive() and child.exitcode == 0
    finally:
        installation.uninstall()
    led.dump(restored=True)
    files = sorted(tmp_path.glob("ledger-*.json"))
    docs = [json.loads(f.read_text()) for f in files]
    assert sorted(d["role"] for d in docs) == ["main", "worker"]
    worker = next(d for d in docs if d["role"] == "worker")
    assert worker["counts"] == {"simulator.runs": 1, "simulator.insns": 1000}
    merged = ledger.merge(str(tmp_path))
    assert merged["counts"]["simulator.runs"] == 6
    assert merged["workers"] == 1 and merged["restored"]
    # a worker's wrapped time was spent while a dispatcher waited for it
    assert merged["self_s"]["runtime.dispatch"] == pytest.approx(-worker["top_s"])


def test_program_layers_install_and_restore(tmp_path):
    """Every TARGETS entry resolves in the real program and is restored."""
    led = ledger.Ledger(str(tmp_path))
    installation = ledger.install(led)
    patched = {(id(owner), name) for owner, name, _ in installation.patches}
    assert len(patched) >= len(ledger.TARGETS)
    assert installation.uninstall() == []
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for value in vars(module).values():
                assert not getattr(value, "__wrapped_by_ledger__", False)
