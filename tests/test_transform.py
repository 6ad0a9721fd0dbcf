"""Travel-time change of variables and the q-field machinery."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cached_data import cached_boundary_data
from convexiwave.errors import FloorViolation, HorizonTooShort
from convexiwave.fixtures import fixture_medium
from convexiwave.forward import CorrectionBox, MediumProfile, SourceModel, boundary_data, simulate
from convexiwave.grid import Field2D, Signal, SpaceTimeGrid, operators_for
from convexiwave.solver import QRConfig, correction_step
from convexiwave.transform import (
    QField,
    boundary_traces_from_data,
    c_from_q,
    q_floor_from_c_upper,
    q_from_u,
    residual_parts,
    travel_time,
)

FLOOR = q_floor_from_c_upper(15.0)


def _const_medium(c_val, x_lo=-5.0, x_hi=5.0, n=100):
    x = np.linspace(x_lo, x_hi, n + 1)
    return MediumProfile(x, np.full(x.size, float(c_val)))


def test_travel_time_background():
    tau = travel_time(_const_medium(1.0))
    x = np.array([0.0, 1.0, 2.5])
    assert np.allclose(tau.at(x), x, atol=1e-9)


def test_travel_time_constant_four():
    tau = travel_time(_const_medium(4.0))
    assert tau.at(np.array([1.5]))[0] == pytest.approx(3.0, rel=1e-9)


def test_travel_time_anchored_at_zero():
    tau = travel_time(_const_medium(2.0))
    assert tau.at(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-12)


def test_q_floor_value():
    assert FLOOR == pytest.approx(1.0 / (2.0 * 15.0**0.25))


def test_c_from_q_constant_background():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 20, 20)
    q = QField(g, Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    c = c_from_q(q)
    assert np.allclose(c.c, 1.0, atol=1e-12)


@given(cval=st.floats(1.0, 14.0, allow_nan=False))
@settings(max_examples=20, deadline=None)
def test_c_from_q_inverts_amplitude_law(cval):
    """c -> q(x,0) = 1/(2 c^(1/4)) -> c round trip is the identity."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 10, 10)
    trace = 1.0 / (2.0 * cval**0.25)
    q = QField(g, Field2D(g, np.full(g.shape, trace)), FLOOR)
    c = c_from_q(q)
    assert np.allclose(c.c, cval, rtol=1e-9)


def test_c_from_q_floor_violation():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 10, 10)
    vals = np.full(g.shape, 0.5)
    vals[:, 0] = FLOOR - 0.01
    with pytest.raises(FloorViolation):
        c_from_q(QField(g, Field2D(g, vals), FLOOR))


@pytest.mark.parametrize("site", ["qfield", "residual_parts", "c_from_q", "correction_step"])
def test_floor_violation_names_the_minimum_and_the_floor(site):
    """Every consumer of the t=0 row refuses a row below the floor, with one message."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 10, 10)
    q = QField(g, Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    q.values.values[3, 0] = FLOOR - 0.01  # after the constructor's check
    vals = q.values.values
    traces = Signal(0.0, g.dt, np.full(g.nt + 1, 0.5))
    calls = {
        "qfield": lambda: QField(g, Field2D(g, vals), FLOOR),
        "residual_parts": lambda: residual_parts(vals, operators_for(g), FLOOR),
        "c_from_q": lambda: c_from_q(q),
        "correction_step": lambda: correction_step(q, traces, traces, QRConfig()),
    }
    message = re.escape(f"dips to {FLOOR - 0.01:.6g} below the floor {FLOOR:.6g}")
    with pytest.raises(FloorViolation, match=message):
        calls[site]()


def test_q_from_u_background_row():
    """For c = 1, q(x, 0) = 1/2 along the whole inversion interval."""
    # resolved grid: the coarse default (nt=300) smears the front by dispersion
    fg = SpaceTimeGrid(-5.0, 5.0, 6.0, 3000, 3000)
    medium = _const_medium(1.0, fg.x_min, fg.x_max, fg.nx)
    u, _ = boundary_data(medium, fg, SourceModel(), CorrectionBox())
    tau = travel_time(medium)
    gq = SpaceTimeGrid(0.0, 3.0, 2.0, 30, 30)
    q = q_from_u(u, tau, gq)
    assert np.allclose(q.values.values[:, 0], 0.5, atol=0.01)


def test_q_from_u_horizon_guard():
    fg = SpaceTimeGrid(-5.0, 5.0, 2.0, 500, 100)
    medium = _const_medium(1.0, fg.x_min, fg.x_max, fg.nx)
    u = simulate(medium, fg, SourceModel())
    tau = travel_time(medium)
    gq = SpaceTimeGrid(0.0, 3.0, 6.0, 20, 20)
    with pytest.raises(HorizonTooShort):
        q_from_u(u, tau, gq)


def test_residual_zero_for_consistent_constant():
    """A field constant in space and time annihilates the residual."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 25, 25)
    q = QField(g, Field2D(g, np.full(g.shape, 0.5)), FLOOR)
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
    q = QField(g, Field2D(g, vals), FLOOR)
    F = residual_parts(q.values.values, operators_for(g), FLOOR)[-1]
    # q_xx = 0, q_xt = 0, q_t = const, q_x(x,0) = 0 -> F = 0
    assert np.max(np.abs(F)) < 1e-10


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


def test_round_trip_smooth_inclusion():
    """Simulate test1, transform to q, read c back from the t=0 row.

    The front-amplitude law holds for the smooth single bump; the recovered
    peak approximates the true contrast 11.
    """
    fg = SpaceTimeGrid(-5.0, 5.0, 14.0, 3000, 700)
    medium = fixture_medium("test1")
    u = simulate(medium, fg, SourceModel())
    tau = travel_time(medium)
    gq = SpaceTimeGrid(0.0, 3.0, 6.0, 60, 60)
    q = q_from_u(u, tau, gq)
    c = c_from_q(q)
    assert abs(float(np.max(c.c)) - 11.0) / 11.0 < 0.15
