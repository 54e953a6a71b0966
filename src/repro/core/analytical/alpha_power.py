"""The alpha-power delay law and its numeric inverse.

``f = k (V - Vt)^a / V`` (Sakurai-Newton), with a = 1.5 and Vt = 0.45 V as
in the paper.  Frequency is strictly increasing in V above Vt, so the
inverse V(f) is a bracketed root find by Brent's method (inverse
quadratic interpolation safeguarded by bisection), in the pure-Python
port of :mod:`.numeric`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analytical.numeric import brentq
from repro.errors import AnalysisError
from repro.simulator.dvs import ALPHA, V_THRESHOLD, calibrate_k


@dataclass(frozen=True)
class AlphaPowerLaw:
    """A calibrated V <-> f mapping.

    Attributes:
        k: technology constant (Hz·V^(1-a) scale).
        alpha: velocity-saturation exponent (paper: 1.5).
        vt: threshold voltage (paper: 0.45 V).
    """

    k: float
    alpha: float = ALPHA
    vt: float = V_THRESHOLD

    @classmethod
    def calibrated(
        cls,
        f_high: float = 800e6,
        v_high: float = 1.65,
        alpha: float = ALPHA,
        vt: float = V_THRESHOLD,
    ) -> "AlphaPowerLaw":
        """Law with k chosen so that frequency(v_high) == f_high."""
        return cls(k=calibrate_k(f_high, v_high, alpha, vt), alpha=alpha, vt=vt)

    def frequency(self, voltage: float) -> float:
        """Clock frequency at a supply voltage (Hz)."""
        if voltage <= self.vt:
            raise AnalysisError(f"voltage {voltage} V must exceed Vt={self.vt} V")
        return self.k * (voltage - self.vt) ** self.alpha / voltage

    def voltage(self, frequency: float, v_max: float = 20.0) -> float:
        """Supply voltage needed for a clock frequency (numeric inverse)."""
        if frequency <= 0:
            raise AnalysisError(f"frequency must be positive, got {frequency}")
        lo = self.vt * (1 + 1e-12)
        if self.frequency(v_max) < frequency:
            raise AnalysisError(
                f"frequency {frequency / 1e6:.1f} MHz unreachable below {v_max} V"
            )
        return brentq(lambda v: self.frequency(v) - frequency, lo, v_max, xtol=1e-12)

    def energy_per_cycle(self, voltage: float) -> float:
        """Relative dynamic energy of one cycle at a voltage (CV² with C=1)."""
        return voltage * voltage


DEFAULT_LAW = AlphaPowerLaw.calibrated()
