"""Golden fixtures: simulated test media and synthesized experimental-style traces.

The five simulated media mirror the production test battery (single high
contrast bump, two bumps, one step, three steps, sine plus step). The five
experimental-style fixtures synthesize radar-like raw traces from forward
simulations plus a calibrated distortion (additive ringing and side lobes)
so the preprocessing path can be exercised without field data.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import FixtureMissing
from .forward import FORWARD_GRID, INCIDENT_LEVEL, BoundaryData, MediumProfile, boundary_data
from .grid import Signal, SpaceTimeGrid
from .preprocess import CalibrationResult, MediumMode, RawTrace


# ---------------------------------------------------------------------------
# Piecewise medium descriptions
# ---------------------------------------------------------------------------

# The keys each medium piece kind requires, besides "kind"; a "sine" piece
# may also give "phase_center".
PIECE_KEYS = {
    "bump": ("center", "halfwidth", "amplitude"),
    "step": ("center", "halfwidth", "value"),
    "sine": ("center", "halfwidth", "base", "amplitude"),
}


def is_finite_number(value) -> bool:
    """True for a JSON number that is finite as a float: not a boolean, NaN,
    +-inf or an integer beyond the float range."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


def check_piece(piece) -> None:
    """Raise ValueError, naming the key, unless ``piece`` is a dict with a
    known ``kind`` and exactly that kind's keys, holding finite numbers in the
    ranges that keep c > 0: a positive halfwidth and step value, a bump
    amplitude above -1 and a sine base above |amplitude|."""
    if not isinstance(piece, dict):
        raise ValueError(f"medium piece {piece!r} is not an object")
    kind = piece.get("kind")
    if kind not in PIECE_KEYS:
        raise ValueError(f"unknown medium piece kind {kind!r}; known: {', '.join(PIECE_KEYS)}")
    required = set(PIECE_KEYS[kind])
    allowed = required | {"kind"} | ({"phase_center"} if kind == "sine" else set())
    if missing := required - piece.keys():
        raise ValueError(f"{kind} piece lacks {', '.join(sorted(missing))}")
    if unknown := piece.keys() - allowed:
        raise ValueError(f"{kind} piece has unknown keys {', '.join(sorted(unknown))}")
    if not all(is_finite_number(piece[key]) for key in piece.keys() - {"kind"}):
        raise ValueError(f"{kind} piece values must be finite numbers")
    if not piece["halfwidth"] > 0:
        raise ValueError(f"{kind} piece halfwidth must be positive")
    if kind == "step" and not piece["value"] > 0:
        raise ValueError("step piece value must be positive")
    if kind == "bump" and not piece["amplitude"] > -1:
        raise ValueError("bump piece amplitude must exceed -1, so that c stays positive")
    if kind == "sine" and not piece["base"] - abs(piece["amplitude"]) > 0:
        raise ValueError("sine piece base must exceed |amplitude|, so that c stays positive")


def _piece_values(piece: dict, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mask, values-on-mask) for one medium piece that ``check_piece`` accepts."""
    kind = piece["kind"]
    if kind == "bump":
        x0, w, amp = piece["center"], piece["halfwidth"], piece["amplitude"]
        d = x - x0
        mask = np.abs(d) < w
        vals = 1.0 + amp * np.exp(d[mask] ** 2 / (d[mask] ** 2 - w**2))
        return mask, vals
    if kind == "step":
        x0, w, value = piece["center"], piece["halfwidth"], piece["value"]
        mask = np.abs(x - x0) < w
        return mask, np.full(int(mask.sum()), float(value))
    x0, w = piece["center"], piece["halfwidth"]  # a "sine" piece
    base, amp = piece["base"], piece["amplitude"]
    phase = piece.get("phase_center", x0)
    mask = np.abs(x - x0) < w
    return mask, base + amp * np.sin(np.pi * (x[mask] - phase))


def medium_from_pieces(pieces, grid: SpaceTimeGrid) -> MediumProfile:
    """Background 1 overwritten by each piece inside its own window, sampled
    at the x-nodes of ``grid``. Raises ValueError, naming the key, for a
    piece that ``check_piece`` rejects."""
    x = grid.x_nodes()
    c = np.ones_like(x)
    for piece in pieces:
        check_piece(piece)
        mask, vals = _piece_values(piece, x)
        c[mask] = vals
    return MediumProfile(x, c)


# The medium pieces of each simulated fixture.
SIMULATED_TESTS: dict[str, list[dict]] = {
    "test1": [{"kind": "bump", "center": 0.5, "halfwidth": 0.2, "amplitude": 10.0}],
    "test2": [
        {"kind": "bump", "center": 0.5, "halfwidth": 0.2, "amplitude": 3.0},
        {"kind": "bump", "center": 1.4, "halfwidth": 0.3, "amplitude": 5.0},
    ],
    "test3": [{"kind": "step", "center": 0.6, "halfwidth": 0.1, "value": 6.0}],
    "test4": [
        {"kind": "step", "center": 0.3, "halfwidth": 0.1, "value": 3.0},
        {"kind": "step", "center": 0.8, "halfwidth": 0.15, "value": 5.0},
        {"kind": "step", "center": 1.5, "halfwidth": 0.2, "value": 7.0},
    ],
    "test5": [
        {
            "kind": "sine",
            "center": 0.8,
            "halfwidth": 0.6,
            "base": 3.0,
            "amplitude": 0.3,
            "phase_center": 1.25,
        },
        {"kind": "step", "center": 2.0, "halfwidth": 0.3, "value": 7.0},
    ],
}

# Experimental-style fixtures: relative-dielectric profiles, reported bands,
# and the scale factor of each mode used when synthesizing the raw voltages.
# The mu values are documented reference constants from the original field
# calibration; the synthesized traces are constructed so calibration
# reproduces them.
MU_BY_MODE = {MediumMode.AIR: 459420.0, MediumMode.GROUND: 189445.0}

# c_rel: the relative dielectric constant the pipeline should report.
# synth_c: the inclusion contrast used when synthesizing the raw trace —
# calibrated so that the full preprocess+invert pipeline (whose envelope and
# g1 ~ g0' approximations shift amplitudes) reports c_rel. halfwidth: the
# inclusion size; dips reflect weakly and need to be wider than bumps.
EXPERIMENTAL_TESTS: dict[str, dict] = {
    "bush": {"c_rel": 6.76, "mode": MediumMode.AIR, "synth_c": 5.8, "halfwidth": 0.2},
    "wood": {"c_rel": 2.22, "mode": MediumMode.AIR, "synth_c": 2.05, "halfwidth": 0.2},
    "metalbox": {"c_rel": 5.2, "mode": MediumMode.GROUND, "synth_c": 4.15, "halfwidth": 0.2},
    "metalcyl": {"c_rel": 4.7, "mode": MediumMode.GROUND, "synth_c": 3.76, "halfwidth": 0.2},
    "plastic": {"c_rel": 0.37, "mode": MediumMode.GROUND, "synth_c": 0.22, "halfwidth": 0.45},
}

# Smooth compactly supported inclusions: a single reflection event the
# envelope can track, wide enough to be resolvable on the inversion grid.
EXPERIMENTAL_CENTER = 0.5

FIXTURE_NAMES = tuple(SIMULATED_TESTS) + tuple(EXPERIMENTAL_TESTS)


def fixture_medium(name: str) -> MediumProfile:
    """The named fixture's medium, sampled on ``forward.FORWARD_GRID``."""
    if name in SIMULATED_TESTS:
        return medium_from_pieces(SIMULATED_TESTS[name], FORWARD_GRID)
    if name in EXPERIMENTAL_TESTS:
        spec = EXPERIMENTAL_TESTS[name]
        piece = {
            "kind": "bump",
            "amplitude": spec["synth_c"] - 1.0,
            "center": EXPERIMENTAL_CENTER,
            "halfwidth": spec["halfwidth"],
        }
        return medium_from_pieces([piece], FORWARD_GRID)
    raise FixtureMissing(f"unknown fixture {name!r}")


# ---------------------------------------------------------------------------
# Data synthesis
# ---------------------------------------------------------------------------

RAW_TRACE_DT = 0.133


def simulated_boundary_data(name: str, delta: float, seed: int = 0) -> BoundaryData:
    """Forward-simulate a fixture medium and read its boundary data, with noise
    of level ``delta``, at x = 0, the observation point every fixture is defined by."""
    _, data = boundary_data(fixture_medium(name), FORWARD_GRID, 0.0, delta, seed)
    return data


def _smooth_bump(t: np.ndarray, center: float, width: float) -> np.ndarray:
    d = (t - center) / width
    out = np.zeros_like(t)
    mask = np.abs(d) < 1.0
    out[mask] = np.exp(d[mask] ** 2 / (d[mask] ** 2 - 1.0))
    return out


def synthesize_raw_trace(name: str) -> tuple[RawTrace, CalibrationResult, Signal]:
    """A radar-like raw voltage trace for one experimental-style fixture.

    Returns (raw trace, stored calibration, clean simulated scattered wave).
    The distortion adds side lobes of opposite sign around the reflection
    event (so the contrast-sign detector sees three alternating extrema) and
    a small ripple away from it; it vanishes on the event itself so the
    stored scale factor survives calibration.
    """
    if name not in EXPERIMENTAL_TESTS:
        raise FixtureMissing(f"unknown experimental fixture {name!r}")
    spec = EXPERIMENTAL_TESTS[name]
    d = simulated_boundary_data(name, delta=0.0)
    # resample to the radar sampling rate; the truncation window of the
    # preprocessing pipeline is expressed in these coarser steps
    t = np.arange(0.0, FORWARD_GRID.t_max + RAW_TRACE_DT, RAW_TRACE_DT)
    u_sc = np.interp(t, d.g0.times(), d.g0.samples - INCIDENT_LEVEL)
    peak_idx = int(np.argmax(np.abs(u_sc)))
    peak = u_sc[peak_idx]
    t_peak = t[peak_idx]
    lobe_sign = -np.sign(peak) if peak != 0 else 1.0
    lobe_amp = 0.6 * abs(peak)
    lobe_w = 0.25
    distortion = lobe_amp * lobe_sign * (
        _smooth_bump(t, t_peak - 0.6, lobe_w) + _smooth_bump(t, t_peak + 0.9, lobe_w)
    )
    ripple = 0.05 * abs(peak) * np.sin(2.0 * np.pi * t / 0.37) * _smooth_bump(t, t_peak + 2.2, 0.8)
    # ripple on the removable side so the envelope strips it
    ripple = np.abs(ripple) if lobe_sign > 0 else -np.abs(ripple)
    mu = MU_BY_MODE[spec["mode"]]
    raw_samples = (u_sc + distortion + ripple) / mu
    raw = RawTrace(Signal(0.0, RAW_TRACE_DT, raw_samples), spec["mode"])
    cal = CalibrationResult(mu=mu)
    sim_ref = Signal(0.0, RAW_TRACE_DT, u_sc)
    return raw, cal, sim_ref
