"""Analytical-parameter extraction tests (the Table 7 pipeline)."""

import pytest

from repro.lang import compile_program
from repro.profiling import extract_params, profile_program
from repro.profiling.params_extract import params_from_run
from repro.simulator import Machine, SCALE_CONFIG


def test_params_from_run_fields(machine3, small_cfg, small_inputs, small_registers):
    result = machine3.run(
        small_cfg, inputs=small_inputs, registers=small_registers, mode=2
    )
    params = params_from_run(result, name="small")
    assert params.n_overlap == result.overlap_cycles
    assert params.n_dependent == result.dependent_cycles
    # N_cache covers all synchronous memory-system cycles.
    assert params.n_cache == (
        result.cache_cycles + result.dmiss_sync_cycles + result.ifetch_cycles
    )
    assert params.t_invariant_s == pytest.approx(result.t_invariant_s)
    assert params.name == "small"


def test_extract_params_defaults_to_fastest_mode(machine3, small_cfg, small_inputs, small_registers):
    params = extract_params(
        machine3, small_cfg, inputs=small_inputs, registers=small_registers
    )
    assert params.total_compute_cycles > 0
    assert params.t_invariant_s > 0  # the streaming phase misses
    # The profile reads the same parameters off its own fastest-mode run.
    profile = profile_program(
        machine3, small_cfg, inputs=small_inputs, registers=small_registers
    )
    assert profile.params == params


def test_memory_bound_program_has_large_t_invariant(machine3):
    src = """
    func main() -> int {
        extern a: int[8192];
        var s: int = 0;
        for (var i: int = 0; i < 8192; i = i + 1) { s = s + a[i]; }
        return s;
    }
    """
    cfg = compile_program(src, "stream")
    params = extract_params(machine3, cfg, inputs={"a": [1] * 8192})
    # Streaming misses every 8th element: miss service time is a large
    # fraction of the program's compute time at 800 MHz.
    compute_time = params.total_compute_cycles / 800e6
    assert params.t_invariant_s > 0.2 * compute_time


def test_compute_bound_program_has_negligible_t_invariant(machine3):
    src = """
    func main() -> int {
        var s: int = 0;
        for (var i: int = 0; i < 20000; i = i + 1) { s = (s + i * i) % 65521; }
        return s;
    }
    """
    cfg = compile_program(src, "spin")
    params = extract_params(machine3, cfg)
    compute_time = params.total_compute_cycles / 800e6
    assert params.t_invariant_s < 0.05 * compute_time
    # No data-memory operations: N_cache holds only I-fetch cycles.
    run = machine3.run(cfg, mode=2)
    assert run.cache_cycles == 0
    assert params.n_cache == run.ifetch_cycles


def test_cycle_counts_frequency_invariant(machine3, small_cfg, small_inputs, small_registers):
    p_fast = extract_params(
        machine3, small_cfg, inputs=small_inputs, registers=small_registers, mode=2
    )
    p_slow = extract_params(
        machine3, small_cfg, inputs=small_inputs, registers=small_registers, mode=0
    )
    assert p_fast.n_cache == p_slow.n_cache
    assert p_fast.t_invariant_s == pytest.approx(p_slow.t_invariant_s)
    assert (
        p_fast.total_compute_cycles == p_slow.total_compute_cycles
    )  # only the overlap/dependent split may shift with frequency
