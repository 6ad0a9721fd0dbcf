"""Carleman-weighted objective: values, exact gradient, convexity probes."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexiwave import convexify
from convexiwave.convexify import (
    ALPHA,
    BETA,
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
from convexiwave.grid import Field2D, Signal, SpaceTimeGrid
from convexiwave.transform import DEFAULT_C_UPPER, QField, q_floor_from_c_upper, residual_parts

FLOOR = q_floor_from_c_upper(DEFAULT_C_UPPER)


def _null_context(grid, params=None):
    q_eps = Signal(0.0, grid.dt, np.full(grid.nt + 1, 0.5))
    qx_eps = Signal(0.0, grid.dt, np.zeros(grid.nt + 1))
    return make_context(grid, q_eps, qx_eps, params or ConvexParams(), DEFAULT_C_UPPER)


@pytest.mark.parametrize(
    "t0, dt_factor, n_extra",
    [(0.1, 1.0, 0), (0.0, 0.5, 0), (0.0, 1.0, 1), (0.0, 1.0, -1)],
    ids=["late_start", "other_step", "one_sample_more", "one_sample_less"],
)
def test_make_context_rejects_traces_off_the_grids_t_nodes(t0, dt_factor, n_extra):
    """A trace must be sampled on exactly the grid's t-nodes: the right
    number of samples from another start or step is refused too."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 10, 10)
    good = Signal(0.0, g.dt, np.full(g.nt + 1, 0.5))
    off = Signal(t0, g.dt * dt_factor, np.full(g.nt + 1 + n_extra, 0.5))
    for q_eps, qx_eps in [(off, good), (good, off)]:
        with pytest.raises(ValueError, match="t-nodes"):
            make_context(g, q_eps, qx_eps, ConvexParams(), DEFAULT_C_UPPER)


def test_default_params():
    """lam is the objective's one setting; alpha and beta are constants."""
    assert [f.name for f in dataclasses.fields(ConvexParams)] == ["lam"]
    assert ConvexParams().lam == pytest.approx(2.0)
    assert ALPHA == pytest.approx(0.3)
    assert BETA == pytest.approx(1e-9)


def test_params_validation():
    with pytest.raises(ValueError):
        ConvexParams(lam=-1.0)
    with pytest.raises(ValueError):
        ConvexParams(lam=float("inf"))


def test_carleman_weight_values():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 3, 3)
    w = carleman_weight(g, 2.0)
    x = g.x_nodes()[:, None]
    t = g.t_nodes()[None, :]
    assert np.allclose(w, np.exp(-2 * 2.0 * (x + 0.3 * t)))


def test_non_finite_carleman_weight_is_rejected():
    """-2 lam overflows to -inf, and -inf * 0 at the origin is NaN. The
    ValueError comes without a numpy RuntimeWarning, which this suite turns
    into an error."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 4, 4)
    with pytest.raises(ValueError, match="Carleman weight"):
        _null_context(g, ConvexParams(lam=1e308))


@pytest.mark.parametrize("lam, t_max", [(1e300, 6.0), (2.0, 1e300), (100.0, 6.0)])
def test_underflowing_carleman_weight_is_rejected(lam, t_max):
    """W = 1 at the origin, and it underflows to 0 at every other node, at
    every node with t > 0, or only near the far corner, where
    2 lam (x + alpha t) reaches 960."""
    g = SpaceTimeGrid(0.0, 3.0, t_max, 8, 8)
    with pytest.raises(ValueError, match="finite and positive"):
        carleman_weight(g, lam)


def test_carleman_weight_monotone():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 10, 10)
    w = carleman_weight(g, 2.0)
    assert np.all(np.diff(w, axis=0) < 0)
    assert np.all(np.diff(w, axis=1) < 0)


def test_objective_zero_at_consistent_constant():
    """The background field with matching data scores only the tiny H2 term."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 20, 20)
    ctx = _null_context(g)
    q = QField(Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    J = evaluate_J(q, ctx)
    assert 0.0 < J < 1e-8


def test_objective_positive_off_data():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 20, 20)
    ctx = _null_context(g)
    q = QField(Field2D(g, np.full(g.shape, 0.6)), FLOOR)
    assert evaluate_J(q, ctx) > 1e-4


def test_objective_floor_guard():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 10, 10)
    ctx = _null_context(g)
    vals = np.full(g.shape, 0.5)
    vals[:, 0] = FLOOR - 0.02
    with pytest.raises(FloorViolation):
        evaluate_J(QField(Field2D(g, vals), FLOOR), ctx)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_gradient_matches_finite_differences(seed):
    """The analytic gradient agrees with central differences on random fields."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 12, 12)
    ctx = _null_context(g)
    rng = np.random.Generator(np.random.Philox(seed))
    v, h = sample_admissible_pair(g, rng)
    grad = gradient_J(QField(Field2D(g, v), FLOOR), ctx)
    analytic = float(np.sum(grad.values * h))
    s = 1e-6
    qp = QField(Field2D(g, v + s * h), FLOOR)
    qm = QField(Field2D(g, v - s * h), FLOOR)
    fd = (evaluate_J(qp, ctx) - evaluate_J(qm, ctx)) / (2 * s)
    assert abs(analytic - fd) / max(abs(fd), 1e-12) < 1e-5


def _partial_sums(v, ctx):
    """J's running sums, in the order ``evaluate`` adds its five terms."""
    ops = ctx.ops
    F = residual_parts(v, ops, ctx.q_floor)[-1]
    qx_ends = ops.Gx_ends @ v
    terms = (
        float((ctx.w2W * F**2).sum()),
        float((ctx.wtW0 * (v[0] - ctx.q_eps) ** 2).sum()),
        float((ctx.wtW0 * (qx_ends[0] - ctx.qx_eps) ** 2).sum()),
        float((ctx.wtWM * qx_ends[1] ** 2).sum()),
        BETA * float(v.ravel() @ (ops.H2 @ v.ravel())),
    )
    return list(itertools.accumulate(terms))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_evaluate_with_bound_is_none_exactly_above_the_objective(seed):
    """On both points of a sampled admissible pair, ``evaluate(v, ctx, bound)``
    is None exactly when J > bound and otherwise equals ``evaluate(v, ctx)``
    field by field, and ``parts`` element by element, bit for bit. The bounds
    sit at, just below and just above J and each partial sum, so every early
    return is taken; inf and NaN never cut."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 12, 12)
    ctx = _null_context(g)
    rng = np.random.Generator(np.random.Philox(seed))
    v, h = sample_admissible_pair(g, rng)
    for point in (v, v + h):
        full = evaluate(point, ctx)
        partials = _partial_sums(point, ctx)
        assert partials[-1] == full.J
        bounds = [np.inf, np.nan]
        for p in partials:
            bounds += [np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf)]
        for bound in bounds:
            got = evaluate(point, ctx, bound)
            assert (got is None) == bool(full.J > bound), bound
            if got is not None:
                for f in dataclasses.fields(got):
                    mine, ref = getattr(got, f.name), getattr(full, f.name)
                    if f.name == "parts":
                        assert all(map(np.array_equal, mine, ref)) and len(mine) == len(ref)
                    else:
                        assert np.array_equal(mine, ref), f.name


def _relative_error(got, ref):
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


def test_objective_matches_assembled_operators(monkeypatch):
    """The factored stencils of ``residual_parts``, ``evaluate`` and ``gradient``
    give the objective written with the assembled sparse operators.

    The grid is not square, so an x-factor swapped for a t-factor cannot pass
    on shapes alone. A small exponent and a large beta let the right-end
    penalty and the H2 term weigh in; ``evaluate`` and ``gradient`` read
    beta from ``convexify.BETA`` at each call.
    """
    beta = 1e-3
    monkeypatch.setattr(convexify, "BETA", beta)
    grid = SpaceTimeGrid(0.0, 3.0, 6.0, 17, 23)
    rng = np.random.Generator(np.random.Philox(11))
    v, _ = sample_admissible_pair(grid, rng)
    P, Q = grid.shape
    q_eps = 0.5 + 0.05 * rng.normal(size=Q)
    qx_eps = 0.2 * rng.normal(size=Q)
    ctx = make_context(
        grid, Signal(0.0, grid.dt, q_eps), Signal(0.0, grid.dt, qx_eps),
        ConvexParams(lam=0.5), DEFAULT_C_UPPER,
    )
    ops = ctx.ops
    W = carleman_weight(grid, 0.5)
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
    q = QField(Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    grad = gradient_J(q, ctx).values
    assert np.max(np.abs(grad)) < 1e-6


def test_bregman_nonnegative_at_default_weight():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 12, 12)
    ctx = _null_context(g)
    rng = np.random.Generator(np.random.Philox(7))
    for _ in range(10):
        v, h = sample_admissible_pair(g, rng)
        assert bregman_divergence(v, h, ctx) > -1e-10


def test_convexity_scan_shape():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 10, 10)
    table = convexity_scan(g, [0.0, 2.0], n_pairs=5, seed=1)
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
        v, h = sample_admissible_pair(g, rng)
        assert np.all(v[:, 0] >= FLOOR)
        assert np.all(v[:, 0] + h[:, 0] >= FLOOR)


def test_non_finite_sampled_pair_is_rejected(monkeypatch):
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 10, 10)
    rng = np.random.Generator(np.random.Philox(2))
    monkeypatch.setattr(convexify, "AUDIT_RADIUS", np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        sample_admissible_pair(g, rng)


@pytest.mark.parametrize(
    "radius, message",
    [(1e-200, "weighted squared norm of a perturbation underflows to 0"),
     (1e-9, "Bregman divergence .* is within rounding of its terms")],
    ids=["radius_underflows", "radius_below_rounding"],
)
def test_convexity_scan_rejects_a_ball_too_small_to_measure(monkeypatch, radius, message):
    """In a ball so small that a perturbation's weighted squared norm
    underflows to 0, or that a Bregman divergence is rounding error, the scan
    raises instead of reporting a minimum."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 8, 8)
    monkeypatch.setattr(convexify, "AUDIT_RADIUS", radius)
    with pytest.raises(ValueError, match=message):
        convexity_scan(g, [0.0, 1.0, 2.0, 4.0, 8.0], n_pairs=2)
