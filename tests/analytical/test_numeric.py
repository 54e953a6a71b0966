"""The pure-Python Brent and linspace ports equal scipy and numpy bit for bit.

``results.jsonl`` carries the Section 3 bounds, which go through both
routines; a port that moved one last bit would move published bytes.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from repro.core.analytical.alpha_power import AlphaPowerLaw
from repro.core.analytical.numeric import brentq, linspace
from repro.core.continuous import envelope_law
from repro.errors import AnalysisError
from repro.simulator import XSCALE_3
from repro.simulator.dvs import make_mode_table

SEED = 20030609


def _laws(rnd: random.Random) -> list[AlphaPowerLaw]:
    laws = [AlphaPowerLaw.calibrated(), envelope_law(XSCALE_3)]
    laws += [envelope_law(make_mode_table(n)) for n in (2, 5, 7)]
    for _ in range(15):
        laws.append(AlphaPowerLaw.calibrated(
            f_high=rnd.uniform(100e6, 2e9), v_high=rnd.uniform(0.8, 2.5),
            alpha=rnd.uniform(1.1, 2.0), vt=rnd.uniform(0.2, 0.6)))
    return laws


def test_brent_matches_scipy_bit_for_bit_on_alpha_power_inverses():
    rnd = random.Random(SEED)
    calls = 0
    for law in _laws(rnd):
        lo = law.vt * (1 + 1e-12)
        top = law.frequency(20.0)
        for _ in range(400):
            target = math.exp(rnd.uniform(math.log(1e3), math.log(top)))

            def f(v, target=target, law=law):
                return law.frequency(v) - target

            # The bracket and tolerance AlphaPowerLaw.voltage uses...
            ours = brentq(f, lo, 20.0, xtol=1e-12)
            assert ours.hex() == scipy_brentq(f, lo, 20.0, xtol=1e-12).hex()
            assert law.voltage(target) == ours
            # ...and a random sub-bracket at scipy's default tolerances.
            hi = rnd.uniform(lo * 1.01, 20.0)
            if f(hi) > 0:
                assert brentq(f, lo, hi).hex() == scipy_brentq(f, lo, hi).hex()
                calls += 1
            calls += 1
    assert calls >= 10_000


@pytest.mark.parametrize("root_at", ["lo", "hi"])
def test_a_root_on_the_bracket_returns_that_end(root_at):
    law = AlphaPowerLaw.calibrated()
    lo, hi = 0.8, 1.4
    target = law.frequency(lo if root_at == "lo" else hi)

    def f(v):
        return law.frequency(v) - target

    assert f(lo if root_at == "lo" else hi) == 0
    assert brentq(f, lo, hi) == scipy_brentq(f, lo, hi)
    assert brentq(f, lo, hi) == (lo if root_at == "lo" else hi)


def test_equal_signs_raise_analysis_error_where_scipy_raises():
    def f(v):
        return v * v + 1.0

    with pytest.raises(ValueError):
        scipy_brentq(f, -1.0, 1.0)
    with pytest.raises(AnalysisError, match="different signs"):
        brentq(f, -1.0, 1.0)


def test_nan_and_non_convergence_raise_analysis_error():
    with pytest.raises(AnalysisError, match="NaN"):
        brentq(lambda v: math.nan if v > 0.5 else -1.0, 0.0, 1.0)
    with pytest.raises(AnalysisError, match="converge"):
        brentq(lambda v: math.tanh(50 * (v - 0.3)), 0.0, 1.0, maxiter=2)


def test_voltage_rejects_what_it_cannot_invert():
    law = AlphaPowerLaw.calibrated()
    with pytest.raises(AnalysisError):
        law.voltage(0.0)
    with pytest.raises(AnalysisError):
        law.voltage(law.frequency(20.0) * 2)


def test_linspace_matches_numpy_bit_for_bit():
    rnd = random.Random(SEED)
    for _ in range(2000):
        start = rnd.uniform(-1e3, 1e3) * 10.0 ** rnd.randint(-12, 3)
        stop = start + rnd.uniform(-1e3, 1e3) * 10.0 ** rnd.randint(-14, 3)
        num = rnd.randint(0, 400)
        ours = [x.hex() for x in linspace(start, stop, num)]
        assert ours == [float(x).hex() for x in np.linspace(start, stop, num)]
    # A zero step (start == stop) takes numpy's denormal-safe branch.
    assert linspace(2.5, 2.5, 4) == list(np.linspace(2.5, 2.5, 4))
