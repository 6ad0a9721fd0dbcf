"""Grids, finite differences, quadrature, and CSV round trips."""

import io

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from convexiwave.grid import (
    Field2D,
    Signal,
    SpaceTimeGrid,
    cumulative_trapezoid,
    d1_matrix,
    d2_matrix,
    field_to_csv,
    h2_norm_sq,
    operators_for,
    quad_weights,
    signal_from_csv,
    signal_to_csv,
    trapezoid_weights,
)


def _sampled(g, fn):
    """The field fn(x, t) at the nodes of ``g``."""
    return Field2D(g, np.broadcast_to(fn(g.x_nodes()[:, None], g.t_nodes()[None, :]), g.shape))


def test_grid_spacing_and_shape():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 60, 60)
    assert g.dx == pytest.approx(0.05)
    assert g.dt == pytest.approx(0.1)
    assert g.shape == (61, 61)
    assert g.x_nodes()[0] == 0.0 and g.x_nodes()[-1] == 3.0
    assert g.t_nodes()[0] == 0.0 and g.t_nodes()[-1] == 6.0


def test_grid_rejects_degenerate():
    with pytest.raises(ValueError):
        SpaceTimeGrid(0.0, 0.0, 6.0, 60, 60)
    with pytest.raises(ValueError):
        SpaceTimeGrid(0.0, 3.0, 6.0, 1, 60)


@pytest.mark.parametrize("extent", [
    (0.0, np.inf, 6.0), (-np.inf, 3.0, 6.0), (0.0, 3.0, np.inf), (np.nan, 3.0, 6.0),
], ids=["x_max_inf", "x_min_minus_inf", "t_max_inf", "x_min_nan"])
def test_grid_rejects_a_non_finite_extent(extent):
    """An infinite extent would put inf or NaN into dx, dt and the nodes."""
    with pytest.raises(ValueError, match="finite"):
        SpaceTimeGrid(*extent, 60, 60)


@given(
    a=st.floats(-2, 2, allow_nan=False),
    b=st.floats(-2, 2, allow_nan=False),
)
@settings(max_examples=25, deadline=None)
def test_d1_exact_on_linear(a, b):
    """The first-difference stencils differentiate affine data exactly."""
    for n in (2, 3, 10):  # n = 2 is the 3-node closure
        x = np.linspace(0.0, 1.0, n + 1)
        d = d1_matrix(n, x[1] - x[0]) @ (a * x + b)
        assert np.allclose(d, a, atol=1e-10)


@given(
    a=st.floats(-2, 2, allow_nan=False),
    b=st.floats(-2, 2, allow_nan=False),
)
@settings(max_examples=25, deadline=None)
def test_d2_exact_on_quadratic(a, b):
    for n in (2, 3, 10):  # n = 2 is the 3-node closure
        x = np.linspace(0.0, 1.0, n + 1)
        d = d2_matrix(n, x[1] - x[0]) @ (a * x**2 + b * x)
        assert np.allclose(d, 2.0 * a, atol=1e-8)


def test_diff_operators_on_separable_field():
    g = SpaceTimeGrid(0.0, 1.0, 1.0, 30, 30)
    f = _sampled(g, lambda x, t: x**2 * t)
    ops = operators_for(g)
    x = g.x_nodes()[:, None]
    t = g.t_nodes()[None, :]
    assert np.allclose(ops.apply2d(ops.Dx, f.values), 2 * x * t, atol=1e-8)
    assert np.allclose(ops.apply2d(ops.Dt, f.values), x**2, atol=1e-8)
    assert np.allclose(ops.apply2d(ops.Dxx, f.values), 2 * t, atol=1e-6)
    assert np.allclose(ops.apply2d(ops.Dxt, f.values), 2 * x, atol=1e-6)
    assert np.allclose(ops.apply2d(ops.Dtt, f.values), 0.0, atol=1e-6)


def test_trapezoid_weights_integrate_constants():
    w = trapezoid_weights(10, 0.1)  # 10 intervals of width 0.1
    assert w.size == 11
    assert w.sum() == pytest.approx(1.0)


def test_integrate_matches_analytic():
    g = SpaceTimeGrid(0.0, 1.0, 2.0, 200, 200)
    f = _sampled(g, lambda x, t: x * t)
    # int_0^1 int_0^2 x t dt dx = 1/2 * 2 = 1
    assert np.sum(quad_weights(g) * f.values) == pytest.approx(1.0, rel=1e-4)


def test_quad_weights_outer_product():
    g = SpaceTimeGrid(0.0, 1.0, 1.0, 4, 6)
    w = quad_weights(g)
    assert w.shape == g.shape
    assert w.sum() == pytest.approx(1.0)


def test_h2_norm_of_zero_field():
    g = SpaceTimeGrid(0.0, 1.0, 1.0, 10, 10)
    assert h2_norm_sq(np.zeros(g.shape), g) == 0.0


def test_h2_norm_positive_for_nonzero():
    g = SpaceTimeGrid(0.0, 1.0, 1.0, 10, 10)
    f = _sampled(g, lambda x, t: np.sin(x + t))
    assert h2_norm_sq(f.values, g) > 0.0


def test_h2_norm_matches_explicit_sum_of_weighted_squares():
    g = SpaceTimeGrid(0.0, 1.0, 2.0, 7, 9)
    v = np.random.default_rng(0).normal(size=g.shape)
    ops = operators_for(g)
    explicit = sum(np.sum(ops.w2 * ops.apply2d(R, v) ** 2) for R in ops.h2_ops)
    assert h2_norm_sq(v, g) == pytest.approx(explicit, rel=1e-12)


def test_field_csv_roundtrip():
    g = SpaceTimeGrid(0.0, 1.5, 2.5, 7, 9)
    f = _sampled(g, lambda x, t: np.cos(x) * t)
    text = field_to_csv(f)
    header = text.splitlines()[0].split()
    assert header[:2] == ["#", "grid"]
    x_min, x_max, t_max = (float(p) for p in header[2:5])
    assert SpaceTimeGrid(x_min, x_max, t_max, int(header[5]), int(header[6])) == g
    # the header is a comment line to loadtxt; 17 significant digits round-trip exactly
    assert np.array_equal(np.loadtxt(io.StringIO(text), delimiter=","), f.values)


@given(
    t0=st.floats(0, 1, allow_nan=False),
    dt=st.floats(0.01, 0.5, allow_nan=False),
    vals=st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=20),
)
@settings(max_examples=25, deadline=None)
def test_signal_csv_roundtrip(t0, dt, vals):
    s = Signal(t0, dt, np.array(vals))
    back = signal_from_csv(signal_to_csv(s))
    assert back.t0 == pytest.approx(s.t0)
    assert back.dt == pytest.approx(s.dt)
    assert np.allclose(back.samples, s.samples)


@pytest.mark.parametrize("t0, dt", [(0.0, np.nan), (0.0, np.inf), (np.nan, 0.1), (np.inf, 0.1)])
def test_signal_rejects_non_finite_t0_or_dt(t0, dt):
    with pytest.raises(ValueError):
        Signal(t0, dt, np.zeros(4))


def test_cumulative_trapezoid_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(0)
    y2 = rng.standard_normal((61, 61))
    dx = 3.0 / 60
    ref2 = scipy.integrate.cumulative_trapezoid(y2, dx=dx, axis=0, initial=0.0)
    assert np.array_equal(cumulative_trapezoid(y2, dx), ref2)
    x = np.sort(rng.uniform(-1.0, 2.0, 41))
    y1 = np.sqrt(1.0 + x**2)
    ref1 = scipy.integrate.cumulative_trapezoid(y1, x, initial=0.0)
    assert np.array_equal(cumulative_trapezoid(y1, np.diff(x)), ref1)


def test_field_shape_mismatch_rejected():
    g = SpaceTimeGrid(0.0, 1.0, 1.0, 4, 4)
    with pytest.raises(ValueError):
        Field2D(g, np.zeros((3, 5)))
