"""Carleman-weighted objective: values, exact gradient, convexity probes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexiwave.convexify import (
    ConvexParams,
    bregman_divergence,
    carleman_weight,
    convexity_scan,
    evaluate,
    evaluate_J,
    gradient,
    gradient_J,
    make_context,
    random_smooth_field,
    sample_admissible_pair,
)
from convexiwave.errors import FloorViolation
from convexiwave.grid import Field2D, SpaceTimeGrid
from convexiwave.transform import QField, q_floor_from_c_upper, residual_parts

FLOOR = q_floor_from_c_upper(15.0)


def _null_context(grid, params=None):
    q_eps = np.full(grid.nt + 1, 0.5)
    qx_eps = np.zeros(grid.nt + 1)
    return make_context(grid, q_eps, qx_eps, params or ConvexParams())


def test_default_params():
    p = ConvexParams()
    assert p.lam == pytest.approx(2.0)
    assert p.alpha == pytest.approx(0.3)
    assert p.beta == pytest.approx(1e-9)


def test_params_validation():
    with pytest.raises(ValueError):
        ConvexParams(lam=-1.0)
    with pytest.raises(ValueError):
        ConvexParams(beta=0.0)


def test_carleman_weight_values():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 3, 3)
    w = carleman_weight(g, 2.0, 0.3)
    x = g.x_nodes()[:, None]
    t = g.t_nodes()[None, :]
    assert np.allclose(w, np.exp(-2 * 2.0 * (x + 0.3 * t)))


def test_non_finite_carleman_weight_is_rejected():
    """-2 lam overflows to -inf, and -inf * 0 at the origin is NaN."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 4, 4)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="Carleman weight"):
        _null_context(g, ConvexParams(lam=1e308))


def test_carleman_weight_monotone():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 10, 10)
    w = carleman_weight(g, 2.0, 0.3)
    assert np.all(np.diff(w, axis=0) < 0)
    assert np.all(np.diff(w, axis=1) < 0)


def test_objective_zero_at_consistent_constant():
    """The background field with matching data scores only the tiny H2 term."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 20, 20)
    ctx = _null_context(g)
    q = QField(g, Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    J = evaluate_J(q, ctx)
    assert 0.0 < J < 1e-8


def test_objective_positive_off_data():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 20, 20)
    ctx = _null_context(g)
    q = QField(g, Field2D(g, np.full(g.shape, 0.6)), FLOOR)
    assert evaluate_J(q, ctx) > 1e-4


def test_objective_floor_guard():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 10, 10)
    ctx = _null_context(g)
    vals = np.full(g.shape, 0.5)
    vals[:, 0] = FLOOR - 0.02
    with pytest.raises(FloorViolation):
        evaluate_J(QField(g, Field2D(g, vals), FLOOR), ctx)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_gradient_matches_finite_differences(seed):
    """The analytic gradient agrees with central differences on random fields."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 12, 12)
    ctx = _null_context(g)
    rng = np.random.Generator(np.random.Philox(seed))
    v, h = sample_admissible_pair(g, rng, 5.0, FLOOR)
    grad = gradient_J(QField(g, Field2D(g, v), FLOOR), ctx)
    analytic = float(np.sum(grad.values * h))
    s = 1e-6
    qp = QField(g, Field2D(g, v + s * h), FLOOR)
    qm = QField(g, Field2D(g, v - s * h), FLOOR)
    fd = (evaluate_J(qp, ctx) - evaluate_J(qm, ctx)) / (2 * s)
    assert abs(analytic - fd) / max(abs(fd), 1e-12) < 1e-5


def _relative_error(got, ref):
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


def test_objective_matches_assembled_operators():
    """The factored stencils of ``residual_parts``, ``evaluate`` and ``gradient``
    give the objective written with the assembled sparse operators.

    The grid is not square, so an x-factor swapped for a t-factor cannot pass
    on shapes alone. A small exponent and a large beta let the right-end
    penalty and the H2 term weigh in.
    """
    grid = SpaceTimeGrid(0.0, 3.0, 6.0, 17, 23)
    rng = np.random.Generator(np.random.Philox(11))
    v, _ = sample_admissible_pair(grid, rng, 5.0, FLOOR)
    P, Q = grid.shape
    q_eps = 0.5 + 0.05 * rng.normal(size=Q)
    qx_eps = 0.2 * rng.normal(size=Q)
    ctx = make_context(grid, q_eps, qx_eps, ConvexParams(lam=0.5, beta=1e-3))
    ops, beta = ctx.ops, ctx.params.beta
    W = carleman_weight(grid, ctx.params.lam, ctx.params.alpha)
    apply = ops.apply2d

    # the q-PDE residual and the objective, with the assembled operators
    r = v[:, 0]
    s = apply(ops.Dx, v)[:, 0]
    a = 1.0 / (2.0 * r**2)
    b = s / (2.0 * r**3)
    q_xt, q_t, qx = apply(ops.Dxt, v), apply(ops.Dt, v), apply(ops.Dx, v)
    F = apply(ops.Dxx, v) - a[:, None] * q_xt + b[:, None] * q_t
    J = (
        np.sum(ops.w2 * W * F**2)
        + np.sum(ops.wt * W[0] * (v[0] - q_eps) ** 2)
        + np.sum(ops.wt * W[0] * (qx[0] - qx_eps) ** 2)
        + np.sum(ops.wt * W[-1] * qx[-1] ** 2)
        + beta * v.ravel() @ (ops.H2 @ v.ravel())
    )
    # its gradient, through the assembled transposes
    MF = ops.w2 * W * F
    grad = 2.0 * (
        apply(ops.Dxx.T, MF) - apply(ops.Dxt.T, a[:, None] * MF) + apply(ops.Dt.T, b[:, None] * MF)
    )
    sum_B = np.sum(MF * q_xt, axis=1)
    sum_C = np.sum(MF * q_t, axis=1)
    grad[:, 0] += 2.0 * (
        sum_B / r**3 - sum_C * 3.0 * s / (2.0 * r**4) + ops.Gx1d.T @ (sum_C / (2.0 * r**3))
    )
    grad[0] += 2.0 * ops.wt * W[0] * (v[0] - q_eps)
    Z = np.zeros((P, Q))
    Z[0] = ops.wt * W[0] * (qx[0] - qx_eps)
    Z[-1] = ops.wt * W[-1] * qx[-1]
    grad += 2.0 * apply(ops.Dx.T, Z)
    grad += 2.0 * beta * (ops.H2 @ v.ravel()).reshape(P, Q)

    assert _relative_error(residual_parts(v, ops, FLOOR)[-1], F) <= 1e-12
    e = evaluate(v, ctx)
    assert abs(e.J - J) <= 1e-12 * J
    assert _relative_error(gradient(e, ctx), grad) <= 1e-12


def test_gradient_zero_rows_where_objective_flat():
    """Perturbing far outside every residual support changes nothing: the
    gradient of the beta-weighted H2 term alone is tiny."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 12, 12)
    ctx = _null_context(g)
    q = QField(g, Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    grad = gradient_J(q, ctx).values
    assert np.max(np.abs(grad)) < 1e-6


def test_bregman_nonnegative_at_default_weight():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 12, 12)
    ctx = _null_context(g)
    rng = np.random.Generator(np.random.Philox(7))
    for _ in range(10):
        v, h = sample_admissible_pair(g, rng, 5.0, FLOOR)
        assert bregman_divergence(v, h, ctx) > -1e-10


def test_convexity_scan_shape():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 10, 10)
    table = convexity_scan(g, [0.0, 2.0], n_pairs=5, radius=5.0, seed=1)
    assert set(table) == {0.0, 2.0}
    assert all(np.isfinite(v) for v in table.values())


def test_random_smooth_field_deterministic():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 8, 8)
    f1 = random_smooth_field(g, np.random.Generator(np.random.Philox(5)))
    f2 = random_smooth_field(g, np.random.Generator(np.random.Philox(5)))
    assert np.array_equal(f1, f2)


def test_sample_admissible_pair_respects_floor():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 10, 10)
    rng = np.random.Generator(np.random.Philox(2))
    for _ in range(20):
        v, h = sample_admissible_pair(g, rng, 5.0, FLOOR)
        assert np.all(v[:, 0] >= FLOOR)
        assert np.all(v[:, 0] + h[:, 0] >= FLOOR)


def test_non_finite_sampled_pair_is_rejected():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 10, 10)
    rng = np.random.Generator(np.random.Philox(2))
    with pytest.raises(ValueError, match="non-finite"):
        sample_admissible_pair(g, rng, np.nan, FLOOR)
