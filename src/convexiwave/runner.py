"""Golden-fixture runner: full pipeline plus expected-band comparison."""

from __future__ import annotations

import os

import numpy as np

from .config import RunConfig, invert_from_config
from .errors import FixtureMissing
from .fixtures import (
    EXPERIMENTAL_TESTS,
    SIMULATED_TESTS,
    fixture_medium,
    simulated_boundary_data,
    synthesize_raw_trace,
)
from .grid import profile_to_csv
from .preprocess import calibrate, preprocess_pipeline

# per-fixture expected reconstruction bands: list of (window_lo, window_hi,
# target_max, rel_tol) over the reconstructed profile
# (window lo, window hi, true in-window maximum, relative tolerance).
# Tests 1, 3, 4 carry reconstruction-accuracy bands. Tests 2 and 5 carry
# detection-level bands only: the two-bump and sine-plus-step media put
# features deep enough that the plain-gradient pipeline locates them but
# does not reproduce their amplitudes (the test5 step's round trip returns
# at t ~ 5.8, at the edge of the T = 6 record).
SIMULATED_BANDS = {
    "test1": [(0.2, 0.8, 11.0, 0.25)],
    "test2": [(0.2, 0.8, 4.0, 0.40), (1.0, 1.9, 6.0, 0.80)],
    "test3": [(0.3, 0.9, 6.0, 0.25)],
    "test4": [(0.1, 0.55, 3.0, 0.30), (0.55, 1.1, 5.0, 0.30), (1.2, 1.9, 7.0, 0.30)],
    "test5": [(0.2, 1.4, 3.3, 0.40), (1.6, 2.4, 7.0, 0.60)],
}

EXPERIMENTAL_REL_TOL = 0.25

# Seed of the delta = 0.05 noise on a simulated fixture's data.
NOISE_SEED = 1


def j_monotone_within_legs(diagnostics, rel_slack: float = 1e-12) -> bool:
    """True if J never increases across accepted steps within a descent leg.

    Correction steps start a new leg (the objective is rebuilt around the
    corrected iterate), so J is only compared between rows that share a
    correction count.
    """
    prev_J = None
    prev_leg = None
    for row in diagnostics:
        leg = row["correction_count"]
        if leg == prev_leg and row["J"] > prev_J + rel_slack * max(1.0, abs(prev_J)):
            return False
        prev_J = row["J"]
        prev_leg = leg
    return True


def run_fixture(name: str, out_dir: str | None = None):
    """Execute one golden fixture end to end, with the production config, and
    compare against its bands."""
    cfg = RunConfig()
    checks = []
    if name in SIMULATED_TESTS:
        data = simulated_boundary_data(name, delta=0.05, seed=NOISE_SEED)
        result = invert_from_config(data, cfg)
        x = result.c_comp.x
        c = result.c_comp.c
        for lo, hi, target, tol in SIMULATED_BANDS[name]:
            window = (x >= lo) & (x <= hi)
            got = float(np.max(c[window]))
            ok = abs(got - target) <= tol * target
            checks.append({"window": [lo, hi], "target": target, "got": got, "ok": ok})
    elif name in EXPERIMENTAL_TESTS:
        spec = EXPERIMENTAL_TESTS[name]
        raw, cal, sim_ref = synthesize_raw_trace(name)
        recovered = calibrate(raw, sim_ref)
        cal_ok = abs(recovered.mu - cal.mu) <= 1e-3 * cal.mu
        data = preprocess_pipeline(
            raw, cal,
            half_width_steps=cfg.preprocess.half_width_steps,
            diff_reg=cfg.preprocess.diff_reg,
        )
        result = invert_from_config(data, cfg)
        x = result.c_comp.x
        c = result.c_comp.c
        target = spec["c_rel"]
        if target >= 1.0:
            got = float(np.max(c))
            side_ok = got > 1.0
        else:
            got = float(np.min(c))
            side_ok = got < 1.0
        ok = abs(got - target) <= EXPERIMENTAL_REL_TOL * target
        checks.append({"calibration_ok": cal_ok, "target": target, "got": got,
                       "ok": bool(ok and cal_ok and side_ok), "side_ok": side_ok})
    else:
        raise FixtureMissing(f"unknown fixture {name!r}")

    mono = j_monotone_within_legs(result.diagnostics)
    checks.append({"j_monotone": mono, "ok": mono})

    report = {
        "fixture": name,
        "checks": checks,
        "corrections": result.corrections,
        "converged": result.converged,
        "passed": all(chk["ok"] for chk in checks),
    }
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        true_medium = fixture_medium(name)
        x = result.c_comp.x
        for label, xs, cs in (
            ("c_true", x, true_medium.sample(x)),
            ("c_init", result.c_init.x, result.c_init.c),
            ("c_comp", result.c_comp.x, result.c_comp.c),
        ):
            with open(os.path.join(out_dir, f"{name}_{label}.csv"), "w") as f:
                f.write(profile_to_csv(xs, cs))
    return report
