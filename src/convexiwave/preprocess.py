"""Radar-trace preprocessing: calibration, envelopes, truncation, sign detection.

Raw field traces are far off the simulated amplitude scale, ring, and carry
clutter. The pipeline scales them by a calibrated factor, bounds them by a
lower (or upper) envelope, keeps a short window around the dominant
excursion, and rebuilds the total wave by adding the incident level 1/2. The
missing spatial-derivative trace is approximated by the regularized time
derivative of the result, which the outgoing-radiation condition justifies at
the observation point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousExtrema, InvalidInput, ZeroSignal
from .forward import BoundaryData, tikhonov_differentiate
from .grid import Signal


class MediumMode(enum.Enum):
    AIR = "air"
    GROUND = "ground"


class EnvelopeSide(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"


class ContrastSign(enum.Enum):
    HIGH = "high"     # target above background
    LOW = "low"       # target below background


@dataclass
class RawTrace:
    signal: Signal
    medium_mode: MediumMode = MediumMode.AIR


@dataclass
class CalibrationResult:
    mu: float

    def __post_init__(self):
        if not self.mu > 0:
            raise InvalidInput("mu must be positive")


def calibrate(raw_ref: RawTrace, sim_ref: Signal) -> CalibrationResult:
    """mu = ||sim||_inf / ||raw||_inf so that mu * raw matches the simulated scale."""
    raw_max = float(np.max(np.abs(raw_ref.signal.samples)))
    if raw_max == 0.0:
        raise ZeroSignal("reference raw trace is identically zero")
    mu = float(np.max(np.abs(sim_ref.samples))) / raw_max
    return CalibrationResult(mu=mu)


def _local_extrema(samples: np.ndarray):
    """Indices of strict local minima and maxima; plateaus take the leftmost point."""
    d = np.diff(samples)
    sign = np.sign(d)
    # carry the last nonzero slope across plateaus so a flat top still counts once
    carried = sign.copy()
    for i in range(1, carried.size):
        if carried[i] == 0:
            carried[i] = carried[i - 1]
    minima, maxima = [], []
    prev = carried[0]
    for i in range(1, carried.size):
        cur = carried[i]
        if cur == prev or cur == 0:
            continue
        # turning point between slope prev and cur; leftmost index of the plateau
        j = i
        while j > 0 and d[j - 1] == 0:
            j -= 1
        if prev < 0 < cur:
            minima.append(j)
        elif prev > 0 > cur:
            maxima.append(j)
        prev = cur
    return np.array(minima, dtype=int), np.array(maxima, dtype=int)


def detect_contrast_sign(s: Signal) -> ContrastSign:
    """Classify the target/background contrast from the three dominant extrema."""
    minima, maxima = _local_extrema(s.samples)
    kinds = [(i, "min") for i in minima] + [(i, "max") for i in maxima]
    if len(kinds) < 3:
        raise AmbiguousExtrema("need at least 3 local extrema to detect the contrast sign")
    kinds.sort(key=lambda item: abs(s.samples[item[0]]), reverse=True)
    top3 = sorted(kinds[:3], key=lambda item: item[0])
    middle_kind = top3[1][1]
    if middle_kind == "min":
        return ContrastSign.HIGH
    return ContrastSign.LOW


def envelope(s: Signal, side: EnvelopeSide) -> Signal:
    """Bound the trace by the piecewise-linear hull through its extrema.

    Lower: connect the local minima (plus endpoints) and take the pointwise
    minimum with the trace. Upper is symmetric.
    """
    v = s.samples
    n = v.size
    minima, maxima = _local_extrema(v)
    knots = minima if side is EnvelopeSide.LOWER else maxima
    knots = np.unique(np.concatenate(([0], knots, [n - 1])))
    interp = np.interp(np.arange(n), knots, v[knots])
    if side is EnvelopeSide.LOWER:
        out = np.minimum(interp, v)
    else:
        out = np.maximum(interp, v)
    return Signal(s.t0, s.dt, out)


def truncate_window(s: Signal, half_width_steps: int = 10) -> Signal:
    """Zero everything outside a window around the dominant excursion of |s|."""
    v = s.samples
    if np.all(v == 0.0):
        return s.copy()
    k = int(np.argmax(np.abs(v)))
    out = np.zeros_like(v)
    lo = max(0, k - half_width_steps)
    hi = min(v.size, k + half_width_steps + 1)
    out[lo:hi] = v[lo:hi]
    return Signal(s.t0, s.dt, out)


def preprocess_pipeline(
    raw: RawTrace,
    cal: CalibrationResult,
    half_width_steps: int = 10,
    diff_reg: float = 1e-6,
) -> BoundaryData:
    """Scale, envelope, truncate, rebuild the total wave, approximate g1.

    Air mode always takes the lower envelope (the backscattering wave is
    non-positive for a target denser than air); ground mode picks the side
    from the contrast-sign detection.
    """
    scaled = Signal(raw.signal.t0, raw.signal.dt, cal.mu * raw.signal.samples)
    if raw.medium_mode is MediumMode.AIR:
        side = EnvelopeSide.LOWER
    else:
        sign = detect_contrast_sign(scaled)
        side = EnvelopeSide.LOWER if sign is ContrastSign.HIGH else EnvelopeSide.UPPER
    env = envelope(scaled, side)
    u_sc = truncate_window(env, half_width_steps)
    g0 = Signal(u_sc.t0, u_sc.dt, u_sc.samples + 0.5)
    return BoundaryData(g0=g0, g1=tikhonov_differentiate(g0, diff_reg))
