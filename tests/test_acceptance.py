"""End-to-end acceptance criteria for the full reconstruction pipeline.

Each test exercises one release gate: null-scatterer exactness, the golden
simulated reconstructions, gradient and convexity audits, quasi-reversibility
exactness, calibration fidelity, the experimental-style fixtures, and descent
monotonicity. Every inversion runs ``invert_from_config(data, RunConfig())``,
the settings that ``convexiwave invert`` and ``run-fixture`` use; the audits
and the QR check pin their own grids.
"""

import functools
import time

import numpy as np
import pytest
import scipy.integrate

from cached_data import cached_boundary_data, null_boundary_data
from convexiwave.config import RunConfig, invert_from_config
from convexiwave.convexify import convexity_scan, gradient_audit
from convexiwave.fixtures import EXPERIMENTAL_TESTS, synthesize_raw_trace
from convexiwave.grid import Signal, SpaceTimeGrid
from convexiwave.preprocess import calibrate
from convexiwave.runner import j_monotone_within_legs, run_fixture
from convexiwave.solver import QRConfig, initial_guess
from convexiwave.transform import DEFAULT_C_UPPER

pytestmark = pytest.mark.acceptance


@functools.lru_cache(maxsize=None)
def _invert_sim(name, delta=0.0, seed=0):
    return invert_from_config(cached_boundary_data(name, delta, seed), RunConfig())


@functools.lru_cache(maxsize=None)
def _invert_null():
    t0 = time.perf_counter()
    result = invert_from_config(null_boundary_data(), RunConfig())
    return result, time.perf_counter() - t0


@functools.lru_cache(maxsize=None)
def _fixture_report(name):
    return run_fixture(name)


# ---------------------------------------------------------------------------
# 1. Null scatterer
# ---------------------------------------------------------------------------

def test_null_scatterer_exact():
    result, elapsed = _invert_null()
    assert np.max(np.abs(result.c_comp.c - 1.0)) <= 0.05
    assert elapsed <= 120.0


def test_null_scatterer_recorded_off_the_origin():
    """Traces recorded and read at the observation point x = 0.1 reconstruct
    the background on [0.1, 1]: the near-front correction acts on the traces
    there, not at x = 0."""
    cfg = RunConfig.from_dict({"inversion": {"eps": 0.1, "T": 5.9}})
    result = invert_from_config(null_boundary_data(0.1), cfg)
    x, c = result.c_comp.x, result.c_comp.c
    assert x[0] == 0.1
    near = c[x <= 1.0 + 1e-9]
    assert near.size == 19  # dx = 2.9 / 60
    assert np.all((near >= 0.9) & (near <= 1.2)), near


# ---------------------------------------------------------------------------
# 2. Test 1 with 5% noise over five seeds
# ---------------------------------------------------------------------------

def test_single_inclusion_noisy_five_seeds():
    for seed in range(5):
        result = _invert_sim("test1", 0.05, seed)
        c = result.c_comp.c
        x = result.c_comp.x
        peak = float(np.max(c))
        assert 8.8 <= peak <= 13.2, f"seed {seed}: max {peak}"
        center = float(x[np.argmax(c)])
        assert abs(center - 0.5) <= 0.1, f"seed {seed}: center {center}"


# ---------------------------------------------------------------------------
# 3. Test 4: three inclusions
# ---------------------------------------------------------------------------

def test_three_inclusions():
    report = _fixture_report("test4")
    got = [chk["got"] for chk in report["checks"] if "got" in chk]
    targets = (3.0, 5.0, 7.0)
    assert len(got) == 3
    for g, t in zip(got, targets):
        assert abs(g - t) <= 0.25 * t, f"target {t}: got {g}"
    assert got[0] < got[1] < got[2]


# ---------------------------------------------------------------------------
# 4. Test 3, noiseless
# ---------------------------------------------------------------------------

def test_single_inclusion_noiseless():
    result = _invert_sim("test3")
    c = result.c_comp.c
    x = result.c_comp.x
    peak = float(np.max(c))
    assert abs(peak - 6.0) <= 0.6
    assert abs(float(x[np.argmax(c)]) - 0.6) <= 0.05


# ---------------------------------------------------------------------------
# 5. Gradient correctness
# ---------------------------------------------------------------------------

def test_gradient_matches_finite_differences():
    grid = SpaceTimeGrid(0.0, 3.0, 6.0, 20, 20)  # 21 x 21 nodes
    assert max(gradient_audit(grid, trials=50, seed=0)) <= 1e-5


# ---------------------------------------------------------------------------
# 6. Convexification property across lambda
# ---------------------------------------------------------------------------

def test_bregman_minimum_nondecreasing_in_lambda():
    lambdas = [0.0, 1.0, 2.0, 4.0, 8.0]
    grid = SpaceTimeGrid(0.0, 3.0, 6.0, 20, 20)
    table = convexity_scan(grid, lambdas, n_pairs=100, seed=0)
    mins = [table[lam] for lam in lambdas]
    for lo, hi in zip(mins, mins[1:]):
        assert hi >= lo - 1e-12 * max(1.0, abs(lo))
    nonneg = [lam for lam in lambdas if table[lam] >= -1e-12]
    lam_emp = max(nonneg) if nonneg else None
    # the theoretical lambda threshold is nonconstructive: record, don't assert
    print(f"lambda_emp = {lam_emp}; minima = {mins}")


# ---------------------------------------------------------------------------
# 7. Quasi-reversibility exactness
# ---------------------------------------------------------------------------

def test_quasi_reversibility_manufactured_solution():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 200, 200)
    x = g.x_nodes()[:, None]
    t = g.t_nodes()[None, :]

    def phi(s):
        # phi(2x + t) annihilates Q_x - 2 Q_t; effectively vanishes at x = M
        return np.exp(-((s - 2.5) ** 2) / 0.8)

    Q_true = phi(2 * x + t)
    q_true = 0.5 + scipy.integrate.cumulative_trapezoid(
        Q_true, dx=g.dx, axis=0, initial=0.0
    )
    q_eps = Signal(0.0, g.dt, q_true[0])
    qx_eps = Signal(0.0, g.dt, Q_true[0])
    _, Q0 = initial_guess(q_eps, qx_eps, g, QRConfig(reg_eta=1e-11), DEFAULT_C_UPPER)
    rel = np.linalg.norm(Q0.values - Q_true) / np.linalg.norm(Q_true)
    assert rel <= 0.01


# ---------------------------------------------------------------------------
# 8. Calibration constants
# ---------------------------------------------------------------------------

def test_calibration_reproduces_stored_mu():
    for name in EXPERIMENTAL_TESTS:
        raw, cal, sim_ref = synthesize_raw_trace(name)
        got = calibrate(raw, sim_ref)
        assert abs(got.mu - cal.mu) <= 1e-3 * cal.mu, name


# ---------------------------------------------------------------------------
# 9. Experimental-style fixtures
# ---------------------------------------------------------------------------

def test_experimental_fixtures_within_band():
    for name, spec in EXPERIMENTAL_TESTS.items():
        report = _fixture_report(name)
        chk = next(c for c in report["checks"] if "target" in c)
        assert chk["side_ok"], f"{name}: wrong side of background"
        assert abs(chk["got"] - spec["c_rel"]) <= 0.25 * spec["c_rel"], (
            f"{name}: got {chk['got']}, want {spec['c_rel']}"
        )
        assert report["passed"], name


# ---------------------------------------------------------------------------
# 10. Descent monotonicity on every fixture
# ---------------------------------------------------------------------------

def test_objective_monotone_on_every_fixture():
    # directly inverted runs
    runs = [_invert_null()[0], _invert_sim("test3")]
    runs += [_invert_sim("test1", 0.05, seed) for seed in range(5)]
    for result in runs:
        assert j_monotone_within_legs(result.legs)
    # golden-fixture runs carry the same check in their reports
    for name in ("test1", "test2", "test3", "test4", "test5", *EXPERIMENTAL_TESTS):
        report = _fixture_report(name)
        mono = next(c for c in report["checks"] if "j_monotone" in c)
        assert mono["ok"], name
