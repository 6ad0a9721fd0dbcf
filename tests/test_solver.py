"""Initialization, descent, correction, and the assembled inversion."""

import numpy as np
import pytest
import scipy.optimize

from cached_data import cached_boundary_data, null_boundary_data
from convexiwave import solver
from convexiwave.convexify import ConvexParams, evaluate_J, gradient_J, make_context
from convexiwave.errors import SingularSystem
from convexiwave.grid import Field2D, Signal, SpaceTimeGrid
from convexiwave.solver import (
    DescentConfig,
    QRConfig,
    correction_step,
    descend,
    initial_guess,
    invert,
)
from convexiwave.transform import (
    QField,
    boundary_traces_from_data,
    q_floor_from_c_upper,
)

FLOOR = q_floor_from_c_upper(15.0)


def _const_signals(grid, q_val=0.5, qx_val=0.0):
    n = grid.nt + 1
    return (
        Signal(0.0, grid.dt, np.full(n, q_val)),
        Signal(0.0, grid.dt, np.full(n, qx_val)),
    )


# ---------------------------------------------------------------------------
# initial_guess
# ---------------------------------------------------------------------------

def test_initial_guess_background():
    """Constant 1/2 data with zero derivative returns the background iterate."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 30, 30)
    q_eps, qx_eps = _const_signals(g)
    q0, Q0 = initial_guess(q_eps, qx_eps, g, QRConfig())
    assert np.max(np.abs(Q0.values)) < 1e-6
    assert np.allclose(q0.values.values, 0.5, atol=1e-6)
    assert np.allclose(q0.initial_trace(), 0.5)


def test_initial_guess_c_init_is_one_for_background():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 30, 30)
    q_eps, qx_eps = _const_signals(g)
    q0, _ = initial_guess(q_eps, qx_eps, g, QRConfig())
    c_init = 1.0 / (16.0 * q0.initial_trace() ** 4)
    assert np.allclose(c_init, 1.0)


def test_initial_guess_manufactured_transport():
    """Data generated from Q = phi(2x + t) is recovered to 1% L2.

    phi(2x + t) annihilates the transport operator Q_x - 2 Q_t identically.
    """
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 200, 200)
    x = g.x_nodes()[:, None]
    t = g.t_nodes()[None, :]

    def phi(s):
        # effectively vanishes at the far boundary (2x + t >= 6 there), which
        # the quasi-reversibility misfit requires
        return np.exp(-((s - 2.5) ** 2) / 0.8)

    Q_true = phi(2 * x + t)
    # boundary data consistent with q built from Q_true
    import scipy.integrate

    q_true = 0.5 + scipy.integrate.cumulative_trapezoid(Q_true, dx=g.dx, axis=0, initial=0.0)
    q_eps = Signal(0.0, g.dt, q_true[0])
    qx_eps = Signal(0.0, g.dt, Q_true[0])
    _, Q0 = initial_guess(q_eps, qx_eps, g, QRConfig(reg_eta=1e-11))
    rel = np.linalg.norm(Q0.values - Q_true) / np.linalg.norm(Q_true)
    assert rel < 0.01


# ---------------------------------------------------------------------------
# descend
# ---------------------------------------------------------------------------

def test_descend_stationary_start():
    """Starting at the flat-data minimizer terminates almost immediately."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 15, 15)
    ctx = make_context(g, np.full(g.nt + 1, 0.5), np.zeros(g.nt + 1), ConvexParams())
    q0 = QField(g, Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    q, info = descend(q0, ctx, DescentConfig(max_iters=10, grad_tol=1e-6))
    assert info["reason"] in ("grad_tol", "no_decrease")
    assert len(info["steps"]) <= 2


def test_descend_monotone_J():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 20, 20)
    ctx = make_context(g, np.full(g.nt + 1, 0.45), np.zeros(g.nt + 1), ConvexParams())
    q0 = QField(g, Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    q, info = descend(q0, ctx, DescentConfig(max_iters=50))
    J = info["J"]
    assert all(J[i + 1] <= J[i] + 1e-15 for i in range(len(J) - 1))


def test_descend_matches_reference_minimizer():
    """On a small problem the descent minimum matches an independent optimizer.

    scipy's L-BFGS on the same objective/gradient provides the oracle.
    """
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 8, 8)
    ctx = make_context(g, np.full(g.nt + 1, 0.48), np.zeros(g.nt + 1), ConvexParams())
    q0 = QField(g, Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    q, info = descend(q0, ctx, DescentConfig(max_iters=5000, grad_tol=1e-10))

    def fun(v):
        qq = QField(g, Field2D(g, v.reshape(g.shape)), FLOOR)
        return evaluate_J(qq, ctx), gradient_J(qq, ctx).values.ravel()

    # bound the t=0 row at the floor, matching the clamp in descend
    lb = np.full(g.shape, -np.inf)
    lb[:, 0] = FLOOR
    bounds = scipy.optimize.Bounds(lb.ravel(), np.full(g.shape, np.inf).ravel())
    ref = scipy.optimize.minimize(
        fun, np.full(g.shape, 0.5).ravel(), jac=True, method="L-BFGS-B",
        bounds=bounds, options={"maxiter": 5000, "ftol": 1e-18, "gtol": 1e-12},
    )
    J_ref = float(ref.fun)
    J0 = evaluate_J(q0, ctx)
    J_got = evaluate_J(q, ctx)
    # the reference minimum is a true lower bound ...
    assert J_got >= J_ref - 1e-9
    # ... and plain gradient descent closes at least 90% of the gap to it
    assert J_got - J_ref <= 0.1 * (J0 - J_ref)


def test_descend_floor_clamp_maintained():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 15, 15)
    ctx = make_context(g, np.full(g.nt + 1, FLOOR), np.zeros(g.nt + 1), ConvexParams())
    vals = np.full(g.shape, 0.5)
    vals[:, 0] = FLOOR
    q0 = QField(g, Field2D(g, vals), FLOOR)
    q, _ = descend(q0, ctx, DescentConfig(max_iters=100))
    assert np.all(q.initial_trace() >= FLOOR - 1e-12)


# ---------------------------------------------------------------------------
# correction_step
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("freeze_time_derivative", [True, False])
def test_correction_constant_fixed_point(freeze_time_derivative):
    """A consistent constant iterate reproduces itself, with the time
    derivative frozen as a source or kept as an unknown."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 25, 25)
    q_eps, qx_eps = _const_signals(g)
    q = QField(g, Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    q1 = correction_step(q, q_eps, qx_eps, QRConfig(), freeze_time_derivative)
    assert np.max(np.abs(q1.values.values - 0.5)) < 1e-6


def test_correction_manufactured_frozen_solution():
    """phi(2x+t) data with a constant frozen row solves the frozen PDE.

    With q(x,0) = 1/2 the frozen operator is q_xx - 2 q_xt and phi(2x+t)
    annihilates it; the correction must return the manufactured field.
    """
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 60, 60)
    x = g.x_nodes()[:, None]
    t = g.t_nodes()[None, :]

    def phi(s):
        return 0.5 + 0.02 * np.sin(0.9 * s) * np.exp(-0.2 * s)

    def dphi(s):
        return 0.02 * np.exp(-0.2 * s) * (0.9 * np.cos(0.9 * s) - 0.2 * np.sin(0.9 * s))

    q_true = phi(2 * x + t)
    q_eps = Signal(0.0, g.dt, q_true[0])
    qx_eps = Signal(0.0, g.dt, 2.0 * dphi(t.ravel()))
    frozen = QField(g, Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    # the frozen time-derivative source is zero for the constant iterate
    q1 = correction_step(frozen, q_eps, qx_eps, QRConfig())
    # compare away from x = M where phi does not satisfy the one-sided
    # zero-derivative penalty
    interior = slice(0, 50)
    rel = np.linalg.norm(q1.values.values[interior] - q_true[interior]) / np.linalg.norm(
        q_true[interior]
    )
    assert rel < 0.05


def test_correction_output_respects_floor():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 20, 20)
    q_eps, qx_eps = _const_signals(g, q_val=0.3)
    q = QField(g, Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    q1 = correction_step(q, q_eps, qx_eps, QRConfig())
    assert np.all(q1.initial_trace() >= FLOOR - 1e-12)


def test_solve_quadratic_rejects_large_normal_residual(monkeypatch):
    """A direct solve whose normal-equation residual exceeds the tolerance
    is refused rather than returned."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 10, 10)
    q_eps, qx_eps = _const_signals(g, qx_val=0.1)
    exact = solver.spla.spsolve
    monkeypatch.setattr(solver.spla, "spsolve", lambda A, b: exact(A, b) * (1.0 + 1e-3))
    with pytest.raises(SingularSystem, match="residual"):
        initial_guess(q_eps, qx_eps, g, QRConfig())


# ---------------------------------------------------------------------------
# invert
# ---------------------------------------------------------------------------

def test_invert_null_scatterer(inversion_grid):
    d = null_boundary_data()
    res = invert(d, inversion_grid)
    assert np.max(np.abs(res.c_comp.c - 1.0)) < 0.02
    assert np.allclose(res.c_init.c, 1.0, atol=1e-6)


def test_invert_deterministic(inversion_grid):
    d = cached_boundary_data("test3")
    r1 = invert(d, inversion_grid)
    r2 = invert(d, inversion_grid)
    assert np.array_equal(r1.c_comp.c, r2.c_comp.c)


def test_invert_diagnostics_monotone_within_legs(inversion_grid):
    d = cached_boundary_data("test3")
    res = invert(d, inversion_grid)
    by_leg = {}
    for row in res.diagnostics:
        by_leg.setdefault(row["correction_count"], []).append(row["J"])
    for leg, J in by_leg.items():
        assert all(J[i + 1] <= J[i] + 1e-15 for i in range(len(J) - 1)), leg


def test_invert_final_iterate_is_descent_output(inversion_grid):
    """The reconstruction must come from the last descent leg, not a raw
    correction solve: its objective value equals the last diagnostic row."""
    d = cached_boundary_data("test3")
    res = invert(d, inversion_grid)
    q_eps, qx_eps = boundary_traces_from_data(d, inversion_grid, 1e-6)
    ctx = make_context(
        inversion_grid, q_eps.samples, qx_eps.samples, ConvexParams(), 15.0
    )
    J_final = evaluate_J(res.q, ctx)
    assert J_final == pytest.approx(res.diagnostics[-1]["J"], rel=1e-12)
