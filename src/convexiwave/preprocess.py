"""Radar-trace preprocessing: calibration, envelopes, truncation, sign detection.

Raw field traces are far off the simulated amplitude scale, ring, and carry
clutter. The pipeline scales them by a calibrated factor, bounds them by a
lower (or upper) envelope, keeps a short window around the dominant
excursion, and rebuilds the total wave by adding ``forward.INCIDENT_LEVEL``. The
missing spatial-derivative trace is approximated by the regularized time
derivative of the result, which the outgoing-radiation condition justifies at
the observation point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousExtrema, InvalidInput, ZeroSignal
from .forward import INCIDENT_LEVEL, BoundaryData, tikhonov_differentiate
from .grid import Signal


class MediumMode(enum.Enum):
    AIR = "air"
    GROUND = "ground"


class ContrastSign(enum.Enum):
    HIGH = "high"     # target above background
    LOW = "low"       # target below background


@dataclass
class RawTrace:
    signal: Signal
    medium_mode: MediumMode


@dataclass
class CalibrationResult:
    mu: float

    def __post_init__(self):
        if not 0 < self.mu < np.inf:
            raise InvalidInput("mu must be positive and finite")


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
    nz = np.flatnonzero(d)
    s = np.sign(d[nz])
    # a turn is a sign change between consecutive nonzero slopes; the point
    # after the earlier slope is the turning point, the left end of a plateau
    turn = np.flatnonzero(s[1:] != s[:-1])
    j = nz[turn] + 1
    return j[s[turn] < 0], j[s[turn] > 0]


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


def envelope(s: Signal, sign: ContrastSign) -> Signal:
    """Bound the trace by the piecewise-linear hull through its extrema.

    HIGH contrast: connect the local minima (plus endpoints) and take the
    pointwise minimum with the trace. LOW takes the upper hull, symmetrically.
    """
    v = s.samples
    n = v.size
    minima, maxima = _local_extrema(v)
    knots = minima if sign is ContrastSign.HIGH else maxima
    knots = np.unique(np.concatenate(([0], knots, [n - 1])))
    interp = np.interp(np.arange(n), knots, v[knots])
    if sign is ContrastSign.HIGH:
        out = np.minimum(interp, v)
    else:
        out = np.maximum(interp, v)
    return Signal(s.t0, s.dt, out)


def truncate_window(s: Signal, half_width_steps: int) -> Signal:
    """Zero everything outside a window around the dominant excursion of |s|."""
    v = s.samples
    k = int(np.argmax(np.abs(v)))
    out = np.zeros_like(v)
    lo = max(0, k - half_width_steps)
    hi = min(v.size, k + half_width_steps + 1)
    out[lo:hi] = v[lo:hi]
    return Signal(s.t0, s.dt, out)


def preprocess_pipeline(
    raw: RawTrace, cal: CalibrationResult, half_width_steps: int, diff_reg: float
) -> BoundaryData:
    """Scale, envelope, truncate, rebuild the total wave, approximate g1.

    Air mode counts as HIGH contrast (the backscattering wave is non-positive
    for a target denser than air); ground mode detects the sign. Raises
    InvalidInput, naming ``cal.mu``, if the scaled raw trace or its
    regularized derivative overflows.
    """
    with np.errstate(over="ignore"):
        samples = cal.mu * raw.signal.samples
    if not np.all(np.isfinite(samples)):
        raise InvalidInput(f"calibration mu={cal.mu!r} overflows the scaled raw trace")
    scaled = Signal(raw.signal.t0, raw.signal.dt, samples)
    if raw.medium_mode is MediumMode.AIR:
        sign = ContrastSign.HIGH
    else:
        sign = detect_contrast_sign(scaled)
    env = envelope(scaled, sign)
    u_sc = truncate_window(env, half_width_steps)
    g0 = Signal(u_sc.t0, u_sc.dt, u_sc.samples + INCIDENT_LEVEL)
    try:
        return BoundaryData(g0=g0, g1=tikhonov_differentiate(g0, diff_reg))
    except InvalidInput as exc:
        raise InvalidInput(f"calibration mu={cal.mu!r}: {exc}") from exc
