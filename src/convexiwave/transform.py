"""Travel-time change of variables, conversions among u, q and c, and the q-PDE residual.

The wave u(x, t) is re-clocked along the wavefront, q(x, t) = u(x, t + tau(x)),
which turns the unknown-coefficient wave equation into a nonlinear nonlocal
PDE for q alone; its t=0 trace recovers c through c = 1 / (16 q(x,0)^4).
This module owns that PDE's residual (``residual_parts``, which the objective
in ``convexify`` also evaluates) and the only q -> c conversion (``c_from_q``).
Its stencils come from ``grid.operators_for``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .errors import FloorViolation, HorizonTooShort
from .forward import BoundaryData, MediumProfile, tikhonov_differentiate
from .grid import DiscreteOperators, Field2D, Signal, SpaceTimeGrid

DEFAULT_C_UPPER = 15.0

# q_from_u samples the t=0 row of q this far past the wavefront: the smoothing
# width of the standard source, past which u reaches its limit from above.
FRONT_OFFSET = 0.1


def q_floor_from_c_upper(c_upper: float) -> float:
    """Admissible lower bound on q(x, 0) implied by a known upper bound on c."""
    return 1.0 / (2.0 * c_upper**0.25)


def checked_trace(v: np.ndarray, floor: float) -> np.ndarray:
    """The t=0 row of the nodal values ``v`` of q.

    Raises FloorViolation, with the row's minimum and the floor, if the row
    dips more than 1e-12 below ``floor``.
    """
    trace = v[:, 0]
    if np.any(trace < floor - 1e-12):
        raise FloorViolation(f"q(x,0) dips to {trace.min():.6g} below the floor {floor:.6g}")
    return trace


@dataclass
class TravelTime:
    """Cumulative wavefront arrival time tau(x) = integral of sqrt(c) from 0 to x."""

    x: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.tau = np.asarray(self.tau, dtype=float)
        if np.any(np.diff(self.tau) <= 0):
            raise ValueError("tau must be strictly increasing")

    def at(self, x_query: np.ndarray) -> np.ndarray:
        return np.interp(x_query, self.x, self.tau)


@dataclass
class QField:
    """q(x, t) on the inversion grid with its admissible initial-trace floor."""

    grid: SpaceTimeGrid
    values: Field2D
    q_floor: float

    def __post_init__(self):
        if self.values.grid != self.grid:
            raise ValueError("field grid does not match")
        if self.q_floor <= 0:
            raise ValueError("q_floor must be positive")
        checked_trace(self.values.values, self.q_floor)


def travel_time(c: MediumProfile) -> TravelTime:
    """Trapezoidal cumulative quadrature of sqrt(c), anchored so tau(0) = 0."""
    tau = cumulative_trapezoid(np.sqrt(c.c), c.x, initial=0.0)
    tau -= np.interp(0.0, c.x, tau)
    return TravelTime(c.x, tau)


def q_from_u(u: Field2D, tau: TravelTime, grid_q: SpaceTimeGrid) -> QField:
    """Sample q(x, t) = u(x, t + tau(x)) onto the inversion grid.

    Linear interpolation in x (between u's node columns) and in t. The t=0
    row sits exactly on the wavefront jump of u, where the intended value is
    the limit from above; with a smoothed source that limit is reached only
    past the smoothing width, so the t=0 row is sampled at tau(x) +
    ``FRONT_OFFSET``. That row is then raised to the floor implied by
    ``DEFAULT_C_UPPER``, which is also the floor of the returned field.
    """
    xq = grid_q.x_nodes()
    tq = grid_q.t_nodes()
    tau_q = tau.at(xq)
    if np.max(tq[-1] + tau_q) > u.grid.t_max + 1e-9:
        raise HorizonTooShort(
            f"u covers t <= {u.grid.t_max} but q needs t + tau up to "
            f"{np.max(tq[-1] + tau_q):.6g}"
        )
    xu = u.grid.x_nodes()
    tu = u.grid.t_nodes()
    vals = np.empty((xq.size, tq.size))
    for i, (xi, ti_shift) in enumerate(zip(xq, tau_q)):
        j = np.clip(np.searchsorted(xu, xi) - 1, 0, xu.size - 2)
        w = (xi - xu[j]) / (xu[j + 1] - xu[j])
        col = (1.0 - w) * u.values[j] + w * u.values[j + 1]
        vals[i] = np.interp(tq + ti_shift, tu, col)
        vals[i, 0] = np.interp(min(ti_shift + FRONT_OFFSET, tu[-1]), tu, col)
    floor = q_floor_from_c_upper(DEFAULT_C_UPPER)
    # Sampling near the wavefront can land a hair below the admissible floor;
    # project back, as the descent iteration does.
    np.maximum(vals[:, 0], floor, out=vals[:, 0])
    return QField(grid_q, Field2D(grid_q, vals), floor)


def c_from_q(q: QField) -> MediumProfile:
    """Pointwise inverse c(x) = 1 / (16 q(x,0)^4) on the inversion interval."""
    c = 1.0 / (16.0 * checked_trace(q.values.values, q.q_floor) ** 4)
    return MediumProfile(q.grid.x_nodes(), c)


def residual_parts(v: np.ndarray, ops: DiscreteOperators, floor: float):
    """The residual F of the q-PDE at the nodal values ``v`` of q, and the
    pieces its derivative reuses.

    F(q) = q_xx - a q_xt + b q_t with the nonlocal coefficients
    a = 1 / (2 r^2) and b = s / (2 r^3) read from the t=0 traces r = q(x,0)
    and s = r_x. The stencils go through their 1D factors on the (P, Q)
    array: q_t = Dt v, then q_xt = Gx1d q_t and q_xx = Gxx1d v, which equal
    Dxt v and Dxx v up to roundoff, so q_t is the one full-size matvec.
    Raises FloorViolation if r dips below ``floor``. Returns
    (r, s, a, b, q_xt, q_t, F) as node arrays.
    """
    r = checked_trace(v, floor)
    s = ops.Gx1d @ r
    Cq = ops.apply2d(ops.Dt, v)
    Bq = ops.Gx1d @ Cq
    a = 1.0 / (2.0 * r**2)
    b = s / (2.0 * r**3)
    F = ops.Gxx1d @ v - a[:, None] * Bq + b[:, None] * Cq
    return r, s, a, b, Bq, Cq, F


def boundary_traces_from_data(
    d: BoundaryData, grid: SpaceTimeGrid, diff_reg: float = 1e-6
) -> tuple[Signal, Signal]:
    """Boundary traces for the q-system, resampled to the inversion t-nodes.

    q(eps, t) = g0(t + eps) and q_x(eps, t) = g1(t + eps) + g0'(t + eps),
    where g0' is the Tikhonov-regularized derivative of g0 with weight
    ``diff_reg``. Raises HorizonTooShort if g0 ends before T + eps.
    """
    t_needed = grid.t_max + d.eps
    if d.g0.t_end + 1e-9 < t_needed:
        raise HorizonTooShort(
            f"data ends at t={d.g0.t_end} but traces need t up to {t_needed:.6g}"
        )
    dg0 = tikhonov_differentiate(d.g0, diff_reg)
    tq = grid.t_nodes() + d.eps
    g0_vals = np.interp(tq, d.g0.times(), d.g0.samples)
    g1_vals = np.interp(tq, d.g1.times(), d.g1.samples)
    dg0_vals = np.interp(tq, dg0.times(), dg0.samples)
    q_eps = Signal(0.0, grid.dt, g0_vals)
    qx_eps = Signal(0.0, grid.dt, g1_vals + dg0_vals)
    return q_eps, qx_eps
