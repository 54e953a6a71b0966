"""Pure-Python ports of the two numeric routines the analytical model uses.

:func:`brentq` is scipy's Brent root finder and :func:`linspace` is
numpy's evenly spaced grid, each ported operation for operation so they
return the same floats to the last bit.  The Section 3 bounds that the
``verify`` task writes into ``results.jsonl`` go through both, so a
port that differed in the last bit would move published bytes.  Keeping
them here spares a process that only verifies cached schedules the
import of numpy and ``scipy.optimize`` (most of its start-up time).
"""

from __future__ import annotations

import math
from typing import Callable

from repro.errors import AnalysisError

#: scipy.optimize.brentq's defaults.
RTOL = 4 * 2.220446049250313e-16
XTOL = 2e-12
MAXITER = 100


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0


def brentq(f: Callable[[float], float], xa: float, xb: float,
           xtol: float = XTOL, rtol: float = RTOL,
           maxiter: int = MAXITER) -> float:
    """A root of ``f`` in ``[xa, xb]``, where ``f(xa)`` and ``f(xb)``
    differ in sign, by Brent's method.

    A line-for-line port of scipy's ``Zeros/brentq.c`` (Brent 1973,
    inverse quadratic interpolation with a bisection safeguard).  Raises
    :class:`AnalysisError` where scipy raises: equal end-point signs,
    a NaN function value, or no convergence in ``maxiter`` steps.
    """

    def call(x: float) -> float:
        value = float(f(x))
        if math.isnan(value):
            raise AnalysisError(f"the function value at x={x:f} is NaN")
        return value

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise AnalysisError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            # The C MIN macro: the second operand unless the first is less.
            limit = abs(spre)
            if not limit < 3 * abs(sbis) - delta:
                limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < limit:
                # good short step
                spre = scur
                scur = stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise AnalysisError(f"failed to converge after {maxiter} iterations, "
                        f"value is {xcur:f}")


def linspace(start: float, stop: float, num: int) -> list[float]:
    """``num`` evenly spaced floats from ``start`` to ``stop`` inclusive,
    equal to ``numpy.linspace(start, stop, num)`` element for element."""
    if num <= 0:
        return []
    start, stop = float(start), float(stop)
    div = num - 1
    delta = stop - start
    if div == 0:
        return [0.0 * delta + start]
    step = delta / div
    if step == 0:
        points = [(i / div) * delta + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points
