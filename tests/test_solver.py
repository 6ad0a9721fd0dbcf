"""Initialization, descent, correction, and the assembled inversion."""

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp

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
    assert np.allclose(q0.values.values[:, 0], 0.5)


def test_initial_guess_c_init_is_one_for_background():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 30, 30)
    q_eps, qx_eps = _const_signals(g)
    q0, _ = initial_guess(q_eps, qx_eps, g, QRConfig())
    c_init = 1.0 / (16.0 * q0.values.values[:, 0] ** 4)
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
    assert np.all(q.values.values[:, 0] >= FLOOR - 1e-12)


def _reference_descend(q0, ctx, cfg):
    """Armijo descent written with evaluate_J/gradient_J and a QField per
    trial; returns (q, info, number of trials the floor clamp changed)."""
    q = q0
    J = evaluate_J(q, ctx)
    info = {"J": [J], "grad_norm": [], "steps": []}
    clamped = 0
    step_start = cfg.eta_step
    for _ in range(cfg.max_iters):
        g = gradient_J(q, ctx)
        gnorm = float(np.linalg.norm(g.values))
        info["grad_norm"].append(gnorm)
        if gnorm <= cfg.grad_tol:
            break
        gg = gnorm * gnorm
        step = step_start
        accepted = False
        while step >= 1e-14:
            trial = q.values.values - step * g.values
            clamped += bool(np.any(trial[:, 0] < ctx.q_floor))
            np.maximum(trial[:, 0], ctx.q_floor, out=trial[:, 0])
            q_trial = QField(q.grid, Field2D(q.grid, trial), q.q_floor)
            J_trial = evaluate_J(q_trial, ctx)
            if J_trial <= J - cfg.armijo_c1 * step * gg:
                accepted = True
                break
            step *= cfg.backtrack
        if not accepted:
            break
        step_start = min(step / cfg.backtrack, cfg.eta_step)
        q, J = q_trial, J_trial
        info["J"].append(J)
        info["steps"].append(step)
    return q, info, clamped


@pytest.mark.parametrize("clamp", [False, True], ids=["free", "clamped"])
def test_descend_is_bit_identical_to_reference_loop(clamp):
    """Reusing the accepted trial's evaluation for the next gradient changes
    no bit of the iterate or of the recorded history."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 20, 20)
    q_data = FLOOR if clamp else 0.45
    ctx = make_context(g, np.full(g.nt + 1, q_data), np.full(g.nt + 1, 0.05), ConvexParams())
    vals = np.full(g.shape, 0.5)
    if clamp:
        vals[:, 0] = FLOOR
    q0 = QField(g, Field2D(g, vals), FLOOR)
    cfg = DescentConfig(max_iters=200)
    q_ref, info_ref, clamped = _reference_descend(q0, ctx, cfg)
    q, info = descend(q0, ctx, cfg)
    assert (clamped > 0) == clamp
    assert len(info["steps"]) == 200
    assert np.array_equal(q.values.values, q_ref.values.values)
    for key in ("J", "steps", "grad_norm"):
        assert info[key] == info_ref[key], key


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
    assert np.all(q1.values.values[:, 0] >= FLOOR - 1e-12)


def test_solve_quadratic_rejects_large_normal_residual(monkeypatch):
    """A direct solve whose normal-equation residual exceeds the tolerance
    is refused rather than returned."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 10, 10)
    q_eps, qx_eps = _const_signals(g, qx_val=0.1)
    exact = solver.spla.splu

    class Perturbed:
        def __init__(self, *args, **kwargs):
            self.factor = exact(*args, **kwargs)

        def solve(self, b):
            return self.factor.solve(b) * (1.0 + 1e-3)

    monkeypatch.setattr(solver.spla, "splu", Perturbed)
    with pytest.raises(SingularSystem, match="residual"):
        initial_guess(q_eps, qx_eps, g, QRConfig())


def test_solve_quadratic_rejects_an_unknown_no_term_touches():
    """Without reg_ops an untouched unknown leaves an exactly zero pivot,
    which the diagonal-pivot factorization reports instead of solving."""
    L = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0]]))
    with pytest.raises(SingularSystem, match="singular"):
        solver.solve_quadratic([(L, np.ones(2), np.ones(2))], (), np.ones(3), 1e-11, 3)


def test_quasi_reversibility_solves_match_dense_solve(monkeypatch):
    """Every QR system of an initialization and both correction variants on
    a 10x10 grid agrees with a dense solve of the same normal equations."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 10, 10)
    t = g.t_nodes()
    q_eps = Signal(0.0, g.dt, 0.5 + 0.02 * np.sin(t))
    qx_eps = Signal(0.0, g.dt, 0.1 * np.cos(t))
    systems = []
    exact = solver.solve_quadratic

    def recorded(*args):
        out = exact(*args)
        systems.append((args, out[0].copy()))
        return out

    monkeypatch.setattr(solver, "solve_quadratic", recorded)
    q0, _ = initial_guess(q_eps, qx_eps, g, QRConfig())
    for freeze in (True, False):
        correction_step(q0, q_eps, qx_eps, QRConfig(), freeze)
    assert len(systems) == 3
    for (terms, reg_ops, reg_w, reg_eta, n), sol in systems:
        A = np.zeros((n, n))
        b = np.zeros(n)
        for L, w, target in terms:
            L = L.toarray()
            A += L.T @ (w[:, None] * L)
            if target is not None:
                b += L.T @ (w * target)
        for R in reg_ops:
            R = R.toarray()
            A += reg_eta * R.T @ (reg_w[:, None] * R)
        ref = np.linalg.solve(A, b)
        assert np.linalg.norm(sol - ref) <= 1e-10 * np.linalg.norm(ref)


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
