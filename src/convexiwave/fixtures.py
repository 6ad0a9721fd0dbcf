"""Golden fixtures: simulated test media and synthesized experimental-style traces.

The five simulated media mirror the production test battery (single high
contrast bump, two bumps, one step, three steps, sine plus step). The five
experimental-style fixtures synthesize radar-like raw traces from forward
simulations plus a calibrated distortion (additive ringing and side lobes)
so the preprocessing path can be exercised without field data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FixtureMissing
from .forward import (
    CorrectionBox,
    MediumProfile,
    SourceModel,
    add_noise,
    correct_near_origin,
    extract_boundary,
    simulate,
)
from .grid import Signal, SpaceTimeGrid
from .preprocess import CalibrationResult, MediumMode, RawTrace
from .transform import BoundaryData


# ---------------------------------------------------------------------------
# Piecewise medium descriptions
# ---------------------------------------------------------------------------

# The keys each medium piece kind requires, besides "kind"; a "sine" piece
# may also give "phase_center".
PIECE_KEYS = {
    "bump": ("center", "halfwidth", "amplitude"),
    "step": ("center", "halfwidth", "value"),
    "sine": ("center", "halfwidth", "base", "amplitude"),
    "table": ("x", "c"),
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_piece(piece) -> None:
    """Raise ValueError unless ``piece`` is a dict with a known ``kind`` and
    exactly that kind's keys, holding numbers (lists of numbers for "table")."""
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
    if kind == "table":
        xs, cs = piece["x"], piece["c"]
        if not (isinstance(xs, list) and isinstance(cs, list) and 0 < len(xs) == len(cs)
                and all(map(_is_number, xs + cs))):
            raise ValueError("table piece needs x and c as equal-length lists of numbers")
    elif not all(_is_number(piece[key]) for key in piece.keys() - {"kind"}):
        raise ValueError(f"{kind} piece values must be numbers")


def _piece_values(piece: dict, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mask, values-on-mask) for one medium piece."""
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
    if kind == "sine":
        x0, w = piece["center"], piece["halfwidth"]
        base, amp = piece["base"], piece["amplitude"]
        phase = piece.get("phase_center", x0)
        mask = np.abs(x - x0) < w
        return mask, base + amp * np.sin(np.pi * (x[mask] - phase))
    if kind == "table":
        xs = np.asarray(piece["x"], dtype=float)
        cs = np.asarray(piece["c"], dtype=float)
        mask = (x >= xs[0]) & (x <= xs[-1])
        return mask, np.interp(x[mask], xs, cs)
    raise ValueError(f"unknown medium piece kind {kind!r}")


def medium_from_pieces(pieces, x_lo=-5.0, x_hi=5.0, n=3000) -> MediumProfile:
    """Background 1 overwritten by each piece inside its own window."""
    x = np.linspace(x_lo, x_hi, n + 1)
    c = np.ones_like(x)
    for piece in pieces:
        mask, vals = _piece_values(piece, x)
        c[mask] = vals
    return MediumProfile(x, c)


SIMULATED_TESTS: dict[str, dict] = {
    "test1": {
        "pieces": [{"kind": "bump", "center": 0.5, "halfwidth": 0.2, "amplitude": 10.0}],
        "true_max": 11.0,
        "centers": [0.5],
    },
    "test2": {
        "pieces": [
            {"kind": "bump", "center": 0.5, "halfwidth": 0.2, "amplitude": 3.0},
            {"kind": "bump", "center": 1.4, "halfwidth": 0.3, "amplitude": 5.0},
        ],
        "true_max": 6.0,
        "centers": [0.5, 1.4],
    },
    "test3": {
        "pieces": [{"kind": "step", "center": 0.6, "halfwidth": 0.1, "value": 6.0}],
        "true_max": 6.0,
        "centers": [0.6],
    },
    "test4": {
        "pieces": [
            {"kind": "step", "center": 0.3, "halfwidth": 0.1, "value": 3.0},
            {"kind": "step", "center": 0.8, "halfwidth": 0.15, "value": 5.0},
            {"kind": "step", "center": 1.5, "halfwidth": 0.2, "value": 7.0},
        ],
        "true_max": 7.0,
        "centers": [0.3, 0.8, 1.5],
    },
    "test5": {
        "pieces": [
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
        "true_max": 7.0,
        "centers": [0.8, 2.0],
    },
}

# Experimental-style fixtures: relative-dielectric profiles, reported bands,
# and the scale factors used when synthesizing the raw voltages. The mu values
# are documented reference constants from the original field calibration; the
# synthesized traces are constructed so calibration reproduces them.
MU_AIR = 459420.0
MU_GROUND = 189445.0

# c_rel: the relative dielectric constant the pipeline should report.
# synth_c: the inclusion contrast used when synthesizing the raw trace —
# calibrated so that the full preprocess+invert pipeline (whose envelope and
# g1 ~ g0' approximations shift amplitudes) reports c_rel. halfwidth: the
# inclusion size; dips reflect weakly and need to be wider than bumps.
EXPERIMENTAL_TESTS: dict[str, dict] = {
    "bush": {"c_rel": 6.76, "mode": MediumMode.AIR, "mu": MU_AIR, "c_bckgr": 1.0,
             "synth_c": 5.8, "halfwidth": 0.2},
    "wood": {"c_rel": 2.22, "mode": MediumMode.AIR, "mu": MU_AIR, "c_bckgr": 1.0,
             "synth_c": 2.05, "halfwidth": 0.2},
    "metalbox": {"c_rel": 5.2, "mode": MediumMode.GROUND, "mu": MU_GROUND, "c_bckgr": 4.0,
                 "synth_c": 4.15, "halfwidth": 0.2},
    "metalcyl": {"c_rel": 4.7, "mode": MediumMode.GROUND, "mu": MU_GROUND, "c_bckgr": 4.0,
                 "synth_c": 3.76, "halfwidth": 0.2},
    "plastic": {"c_rel": 0.37, "mode": MediumMode.GROUND, "mu": MU_GROUND, "c_bckgr": 4.0,
                "synth_c": 0.22, "halfwidth": 0.45},
}

# Smooth compactly supported inclusions: a single reflection event the
# envelope can track, wide enough to be resolvable on the inversion grid.
EXPERIMENTAL_CENTER = 0.5

FIXTURE_NAMES = tuple(SIMULATED_TESTS) + tuple(EXPERIMENTAL_TESTS)


def fixture_medium(name: str, x_lo=-5.0, x_hi=5.0, n=3000) -> MediumProfile:
    if name in SIMULATED_TESTS:
        return medium_from_pieces(SIMULATED_TESTS[name]["pieces"], x_lo, x_hi, n)
    if name in EXPERIMENTAL_TESTS:
        spec = EXPERIMENTAL_TESTS[name]
        piece = {
            "kind": "bump",
            "amplitude": spec["synth_c"] - 1.0,
            "center": EXPERIMENTAL_CENTER,
            "halfwidth": spec["halfwidth"],
        }
        return medium_from_pieces([piece], x_lo, x_hi, n)
    raise FixtureMissing(f"unknown fixture {name!r}")


# ---------------------------------------------------------------------------
# Data synthesis
# ---------------------------------------------------------------------------

DEFAULT_FORWARD_GRID = SpaceTimeGrid(-5.0, 5.0, 6.0, 3000, 300)
DEFAULT_BOX = CorrectionBox()
RAW_TRACE_DT = 0.133


def simulated_boundary_data(
    name: str,
    delta: float = 0.05,
    seed: int = 0,
    grid: SpaceTimeGrid = DEFAULT_FORWARD_GRID,
    box: CorrectionBox = DEFAULT_BOX,
) -> BoundaryData:
    """Forward-simulate a fixture medium and extract (possibly noisy) boundary data."""
    medium = fixture_medium(name, grid.x_min, grid.x_max, grid.nx)
    u = correct_near_origin(simulate(medium, grid, SourceModel()), box)
    d = extract_boundary(u, 0.0, grid.t_max)
    if delta > 0:
        g0 = add_noise(d.g0, delta, seed)
        g1 = add_noise(d.g1, delta, seed + 1)
        return BoundaryData(g0=g0, g1=g1, eps=d.eps)
    return d


def _smooth_bump(t: np.ndarray, center: float, width: float) -> np.ndarray:
    d = (t - center) / width
    out = np.zeros_like(t)
    mask = np.abs(d) < 1.0
    out[mask] = np.exp(d[mask] ** 2 / (d[mask] ** 2 - 1.0))
    return out


def synthesize_raw_trace(
    name: str, grid: SpaceTimeGrid = DEFAULT_FORWARD_GRID, box: CorrectionBox = DEFAULT_BOX
) -> tuple[RawTrace, CalibrationResult, Signal]:
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
    d = simulated_boundary_data(name, delta=0.0, grid=grid, box=box)
    # resample to the radar sampling rate; the truncation window of the
    # preprocessing pipeline is expressed in these coarser steps
    t = np.arange(0.0, grid.t_max + RAW_TRACE_DT, RAW_TRACE_DT)
    u_sc = np.interp(t, d.g0.times(), d.g0.samples - 0.5)
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
    mu = spec["mu"]
    raw_samples = (u_sc + distortion + ripple) / mu
    raw = RawTrace(Signal(0.0, RAW_TRACE_DT, raw_samples), spec["mode"])
    cal = CalibrationResult(mu=mu, reference_name=name)
    sim_ref = Signal(0.0, RAW_TRACE_DT, u_sc)
    return raw, cal, sim_ref
