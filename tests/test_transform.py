"""Travel-time change of variables and the q-field machinery."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cached_data import cached_boundary_data
from convexiwave.errors import FloorViolation, HorizonTooShort
from convexiwave.fixtures import fixture_medium
from convexiwave.forward import MediumProfile, boundary_data, simulate, tikhonov_differentiate
from convexiwave.grid import Field2D, Signal, SpaceTimeGrid, operators_for
from convexiwave.solver import QRConfig, correction_step
from convexiwave.transform import (
    FRONT_OFFSET,
    QField,
    boundary_traces_from_data,
    c_from_q,
    q_floor_from_c_upper,
    q_from_u,
    residual_adjoint,
    residual_parts,
    travel_time,
)

FLOOR = q_floor_from_c_upper(15.0)


def _const_medium(c_val, x_lo=-5.0, x_hi=5.0, n=100):
    x = np.linspace(x_lo, x_hi, n + 1)
    return MediumProfile(x, np.full(x.size, float(c_val)))


def test_travel_time_background():
    medium = _const_medium(1.0)
    x = np.array([0.0, 1.0, 2.5])
    assert np.allclose(np.interp(x, medium.x, travel_time(medium)), x, atol=1e-9)


def test_travel_time_constant_four():
    medium = _const_medium(4.0)
    assert np.interp(1.5, medium.x, travel_time(medium)) == pytest.approx(3.0, rel=1e-9)


def test_travel_time_anchored_at_zero():
    medium = _const_medium(2.0)
    assert np.interp(0.0, medium.x, travel_time(medium)) == pytest.approx(0.0, abs=1e-12)


def test_travel_time_rejects_a_medium_that_misses_the_origin():
    """tau is anchored at x = 0, so a medium on [0.5, 3] has no anchor."""
    with pytest.raises(ValueError, match=re.escape("covers [0.5, 3]")):
        travel_time(_const_medium(1.0, 0.5, 3.0, 25))


def test_medium_profile_rejects_x_that_is_not_increasing():
    with pytest.raises(ValueError, match=re.escape("[x[1], x[2]] is [2, 1]")):
        MediumProfile([0.0, 2.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        MediumProfile([0.0, 1.0, 1.0], [1.0, 1.0, 1.0])


def test_q_floor_value():
    assert FLOOR == pytest.approx(1.0 / (2.0 * 15.0**0.25))


def test_c_from_q_constant_background():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 20, 20)
    q = QField(Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    c = c_from_q(q)
    assert np.allclose(c.c, 1.0, atol=1e-12)


@given(cval=st.floats(1.0, 14.0, allow_nan=False))
@settings(max_examples=20, deadline=None)
def test_c_from_q_inverts_amplitude_law(cval):
    """c -> q(x,0) = 1/(2 c^(1/4)) -> c round trip is the identity."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 10, 10)
    trace = 1.0 / (2.0 * cval**0.25)
    q = QField(Field2D(g, np.full(g.shape, trace)), FLOOR)
    c = c_from_q(q)
    assert np.allclose(c.c, cval, rtol=1e-9)


def test_c_from_q_floor_violation():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 10, 10)
    vals = np.full(g.shape, 0.5)
    vals[:, 0] = FLOOR - 0.01
    with pytest.raises(FloorViolation):
        c_from_q(QField(Field2D(g, vals), FLOOR))


@pytest.mark.parametrize("site", ["qfield", "residual_parts", "c_from_q", "correction_step"])
def test_floor_violation_names_the_minimum_and_the_floor(site):
    """Every consumer of the t=0 row refuses a row below the floor, with one message."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 10, 10)
    q = QField(Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    q.values.values[3, 0] = FLOOR - 0.01  # after the constructor's check
    vals = q.values.values
    traces = Signal(0.0, g.dt, np.full(g.nt + 1, 0.5))
    calls = {
        "qfield": lambda: QField(Field2D(g, vals), FLOOR),
        "residual_parts": lambda: residual_parts(vals, operators_for(g), FLOOR),
        "c_from_q": lambda: c_from_q(q),
        "correction_step": lambda: correction_step(q, traces, traces, QRConfig(), True),
    }
    message = re.escape(f"dips to {FLOOR - 0.01:.6g} below the floor {FLOOR:.6g}")
    with pytest.raises(FloorViolation, match=message):
        calls[site]()


def test_q_from_u_background_row():
    """For c = 1, q(x, 0) = 1/2 along the whole inversion interval."""
    # resolved grid: the coarse default (nt=300) smears the front by dispersion
    fg = SpaceTimeGrid(-5.0, 5.0, 6.0, 3000, 3000)
    medium = _const_medium(1.0, fg.x_min, fg.x_max, fg.nx)
    u, _ = boundary_data(medium, fg, 0.0, 0.0, 0)
    gq = SpaceTimeGrid(0.0, 3.0, 2.0, 30, 30)
    q = q_from_u(u, medium, gq)
    assert np.allclose(q.values.values[:, 0], 0.5, atol=0.01)


def test_q_from_u_horizon_guard():
    fg = SpaceTimeGrid(-5.0, 5.0, 2.0, 500, 100)
    medium = _const_medium(1.0, fg.x_min, fg.x_max, fg.nx)
    u = simulate(medium, fg)
    gq = SpaceTimeGrid(0.0, 3.0, 6.0, 20, 20)
    with pytest.raises(HorizonTooShort):
        q_from_u(u, medium, gq)


def test_q_from_u_reads_every_row_on_one_clock():
    """For c = 1, tau(x) = x and every row j reads u(x, t_j + x + FRONT_OFFSET).

    The inversion nodes are nodes of the forward grid, so q is u itself at
    those times. At x = 1 the first row past t = 0 reads 0.4779; read at
    t_1 + x, without the offset, it would be 0.4972.
    """
    fg = SpaceTimeGrid(-5.0, 5.0, 6.0, 1000, 600)  # dx = dt = 0.01
    medium = _const_medium(1.0, fg.x_min, fg.x_max, fg.nx)
    u = simulate(medium, fg)
    gq = SpaceTimeGrid(0.0, 3.0, 2.0, 30, 30)
    q = q_from_u(u, medium, gq).values.values
    for i, x in enumerate(gq.x_nodes()):
        col = u.values[round((x - fg.x_min) / fg.dx)]
        expected = np.interp(gq.t_nodes() + x + FRONT_OFFSET, fg.t_nodes(), col)
        expected[0] = max(expected[0], FLOOR)
        assert np.allclose(q[i], expected, rtol=0.0, atol=1e-9), x
    assert q[10, 1] == pytest.approx(0.4779, abs=5e-5)


def test_q_from_u_horizon_covers_the_front_offset():
    """u must reach T + tau(M) + FRONT_OFFSET = 2 + 3 + 0.1: a record that
    ends at 5.05 is too short, one that ends at 5.1 suffices."""
    gq = SpaceTimeGrid(0.0, 3.0, 2.0, 30, 30)
    for t_max, nt, ok in [(5.05, 505, False), (5.1, 510, True)]:
        fg = SpaceTimeGrid(-5.0, 5.0, t_max, 1000, nt)
        medium = _const_medium(1.0, fg.x_min, fg.x_max, fg.nx)
        u = simulate(medium, fg)
        if ok:
            q_from_u(u, medium, gq)
        else:
            with pytest.raises(HorizonTooShort, match=r"t \+ tau \+ 0\.1 up to 5\.1"):
                q_from_u(u, medium, gq)


@pytest.mark.parametrize("u_hi, c_hi", [(2.0, 5.0), (5.0, 2.0)], ids=["u", "medium"])
def test_q_from_u_rejects_a_grid_past_the_field(u_hi, c_hi):
    """Neither u nor the medium (through tau) may be extrapolated to the
    inversion grid's end at x = 3."""
    fg = SpaceTimeGrid(-u_hi, u_hi, 6.0, 40 * int(u_hi), 100)
    medium = _const_medium(1.0, -c_hi, c_hi, 40 * int(c_hi))
    u = simulate(medium, fg)
    gq = SpaceTimeGrid(0.0, 3.0, 2.0, 20, 20)
    covers = f"spans [0, 3], but u covers [{-u_hi:g}, {u_hi:g}] and the medium [{-c_hi:g}, {c_hi:g}]"
    with pytest.raises(ValueError, match=re.escape(covers)):
        q_from_u(u, medium, gq)


def test_residual_zero_for_consistent_constant():
    """A field constant in space and time annihilates the residual."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 25, 25)
    q = QField(Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    F = residual_parts(q.values.values, operators_for(g), FLOOR)[-1]
    assert np.max(np.abs(F)) < 1e-12


def test_residual_zero_for_transport_family():
    """q = phi(2x + t) with constant t=0 row solves the q-equation.

    With q(x,0) = 1/2 the residual reduces to q_xx - 2 q_xt ... scaled by the
    characteristic direction; the family phi(2x + t)/phi-slope cancellation is
    exercised through a linear phi, exact for the second-order stencils.
    """
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 25, 25)
    vals = np.full(g.shape, 0.5)
    t = g.t_nodes()[None, :]
    # additive ramp vanishing at t=0 keeps the nonlocal row at 1/2
    vals = vals + 0.05 * t * np.ones((g.nx + 1, 1))
    q = QField(Field2D(g, vals), FLOOR)
    F = residual_parts(q.values.values, operators_for(g), FLOOR)[-1]
    # q_xx = 0, q_xt = 0, q_t = const, q_x(x,0) = 0 -> F = 0
    assert np.max(np.abs(F)) < 1e-10


def test_residual_adjoint_matches_central_differences():
    """<residual_adjoint(parts, dF), h> is the derivative of v -> sum(dF * F(v))
    along h, to 1e-6 of central differences. Each h moves the t=0 row too,
    so the chain rule through the nonlocal traces r and s is checked; the
    grid is not square, so a swapped x- and t-stencil cannot pass."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 17, 23)
    ops = operators_for(g)
    rng = np.random.Generator(np.random.Philox(3))
    x, t = g.x_nodes()[:, None], g.t_nodes()[None, :]
    v = 0.5 + 0.05 * np.sin(2.0 * x + 0.5 * t) * np.cos(x)
    dF = rng.normal(size=g.shape)
    adjoint = residual_adjoint(residual_parts(v, ops, FLOOR), dF, ops)

    def pairing(w):
        return float(np.sum(dF * residual_parts(w, ops, FLOOR)[-1]))

    s = 1e-6
    for _ in range(5):
        h = rng.normal(size=g.shape)
        fd = (pairing(v + s * h) - pairing(v - s * h)) / (2.0 * s)
        assert abs(float(np.sum(adjoint * h)) - fd) <= 1e-6 * abs(fd)


def test_boundary_traces_resampling():
    d = cached_boundary_data("test1")
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 60, 60)
    q_eps, qx_eps = boundary_traces_from_data(d, g, 1e-6)
    assert q_eps.samples.size == g.nt + 1
    assert qx_eps.samples.size == g.nt + 1
    # before the first reflection the trace reads the background 1/2
    t = q_eps.times()
    # the test1 bump's leading edge sits at x = 0.3, so the first reflection
    # returns at t = 0.6; stay clear of it
    early = (t > 0.25) & (t < 0.55)
    assert np.allclose(q_eps.samples[early], 0.5, atol=0.02)


def test_boundary_traces_horizon_guard():
    d = cached_boundary_data("test1")
    g = SpaceTimeGrid(0.0, 3.0, 8.0, 60, 60)
    with pytest.raises(HorizonTooShort):
        boundary_traces_from_data(d, g, 1e-6)


def test_boundary_traces_read_at_the_grid_start():
    """On a grid that starts at x_min = 0.1, the traces are g0, g1 + g0' at t + 0.1."""
    d = cached_boundary_data("test1")
    g = SpaceTimeGrid(0.1, 3.0, 5.9, 60, 60)
    q_eps, qx_eps = boundary_traces_from_data(d, g, 1e-6)
    t = g.t_nodes() + 0.1
    dg0 = tikhonov_differentiate(d.g0, 1e-6)
    assert np.array_equal(q_eps.samples, np.interp(t, d.g0.times(), d.g0.samples))
    assert np.array_equal(
        qx_eps.samples,
        np.interp(t, d.g1.times(), d.g1.samples) + np.interp(t, dg0.times(), dg0.samples),
    )
    assert (q_eps.t0, q_eps.dt) == (0.0, g.dt)


def test_round_trip_smooth_inclusion():
    """Simulate test1, transform to q, read c back from the t=0 row.

    The front-amplitude law holds for the smooth single bump; the recovered
    peak approximates the true contrast 11.
    """
    fg = SpaceTimeGrid(-5.0, 5.0, 14.0, 3000, 700)
    medium = fixture_medium("test1")
    u = simulate(medium, fg)
    gq = SpaceTimeGrid(0.0, 3.0, 6.0, 60, 60)
    q = q_from_u(u, medium, gq)
    c = c_from_q(q)
    assert abs(float(np.max(c.c)) - 11.0) / 11.0 < 0.15
