"""Travel-time change of variables, conversions among u, q and c, and the q-PDE.

The wave u(x, t) is re-clocked along the wavefront, q(x, t) = u(x, t + tau(x)),
which turns the unknown-coefficient wave equation into a nonlinear nonlocal
PDE for q alone; its t=0 trace recovers c through c = 1 / (16 q(x,0)^4).
This module is that PDE's one home, on the stencils of ``grid.operators_for``:
its residual (``residual_parts``) and exact adjoint (``residual_adjoint``),
which ``convexify`` calls, and its frozen-coefficient operator
(``frozen_operator``), which the correction step solves. It also owns the
only q -> c conversion (``c_from_q``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import FloorViolation, HorizonTooShort, InvalidInput
from .forward import BoundaryData, MediumProfile, tikhonov_differentiate
from .grid import DiscreteOperators, Field2D, Signal, SpaceTimeGrid, cumulative_trapezoid

DEFAULT_C_UPPER = 15.0

# How far past the wavefront ``q_from_u`` starts q's clock (see there).
FRONT_OFFSET = 0.1


def q_floor_from_c_upper(c_upper: float) -> float:
    """Admissible lower bound on q(x, 0) implied by a known upper bound on c.

    Raises ValueError unless 1 < ``c_upper`` < inf: the bound must admit the
    background c = 1, so the floor lies below ``forward.INCIDENT_LEVEL``.
    """
    if not 1.0 < c_upper < np.inf:
        raise ValueError("c_upper must be finite and exceed the background value 1")
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
class QField:
    """q(x, t) on the inversion grid (``values.grid``) with its admissible initial-trace floor."""

    values: Field2D
    q_floor: float

    def __post_init__(self):
        if self.q_floor <= 0:
            raise ValueError("q_floor must be positive")
        checked_trace(self.values.values, self.q_floor)


def travel_time(c: MediumProfile) -> np.ndarray:
    """Wavefront arrival time tau(x) = integral of sqrt(c) from 0 to x at the nodes ``c.x``.

    Trapezoidal cumulative quadrature. Raises ValueError unless the medium's
    interval contains x = 0, where tau is anchored.
    """
    if not c.x[0] <= 0.0 <= c.x[-1]:
        raise ValueError(f"tau is anchored at x = 0, but the medium covers "
                         f"[{c.x[0]:.6g}, {c.x[-1]:.6g}]")
    tau = cumulative_trapezoid(np.sqrt(c.c), np.diff(c.x))
    return tau - np.interp(0.0, c.x, tau)


def q_from_u(u: Field2D, c: MediumProfile, grid_q: SpaceTimeGrid) -> QField:
    """Sample q(x, t) = u(x, t + tau(x) + ``FRONT_OFFSET``) onto the inversion grid, tau from c.

    Linear interpolation in x (between u's node columns) and in t. Every row
    is read on one clock, ``FRONT_OFFSET`` past the wavefront: at tau(x)
    itself the t=0 row would sit exactly on the wavefront jump of u, where
    the intended value is the limit from above, and with a smoothed source
    that limit is reached only past the smoothing width. The t=0 row is then
    raised to the floor implied by ``DEFAULT_C_UPPER``, which is also the
    floor of the returned field. Raises ValueError if the inversion grid
    reaches past the x-range of u or of c, and HorizonTooShort if
    t + tau(x) + ``FRONT_OFFSET`` reaches past u's last time.
    """
    xq = grid_q.x_nodes()
    tq = grid_q.t_nodes()
    xu = u.grid.x_nodes()
    lo, hi = max(xu[0], c.x[0]), min(xu[-1], c.x[-1])
    if xq[0] < lo - 1e-9 or xq[-1] > hi + 1e-9:
        raise ValueError(f"the inversion grid spans [{xq[0]:.6g}, {xq[-1]:.6g}], but u covers "
                         f"[{xu[0]:.6g}, {xu[-1]:.6g}] and the medium "
                         f"[{c.x[0]:.6g}, {c.x[-1]:.6g}]")
    shift = np.interp(xq, c.x, travel_time(c)) + FRONT_OFFSET
    if np.max(tq[-1] + shift) > u.grid.t_max + 1e-9:
        raise HorizonTooShort(
            f"u covers t <= {u.grid.t_max} but q needs t + tau + {FRONT_OFFSET} up to "
            f"{np.max(tq[-1] + shift):.6g}"
        )
    tu = u.grid.t_nodes()
    vals = np.empty((xq.size, tq.size))
    for i, (xi, ti_shift) in enumerate(zip(xq, shift)):
        j = np.clip(np.searchsorted(xu, xi) - 1, 0, xu.size - 2)
        w = (xi - xu[j]) / (xu[j + 1] - xu[j])
        col = (1.0 - w) * u.values[j] + w * u.values[j + 1]
        vals[i] = np.interp(tq + ti_shift, tu, col)
    floor = q_floor_from_c_upper(DEFAULT_C_UPPER)
    # Sampling near the wavefront can land a hair below the admissible floor;
    # project back, as the descent iteration does.
    np.maximum(vals[:, 0], floor, out=vals[:, 0])
    return QField(Field2D(grid_q, vals), floor)


def c_from_q(q: QField) -> MediumProfile:
    """Pointwise inverse c(x) = 1 / (16 q(x,0)^4); InvalidInput if it underflows to 0."""
    r = checked_trace(q.values.values, q.q_floor)
    with np.errstate(over="ignore"):
        c = 1.0 / (16.0 * r**4)
    if not np.all(c > 0):
        raise InvalidInput(f"q(x,0) reaches {r.max():.6g}, where c = 1/(16 q^4) underflows to 0")
    return MediumProfile(q.values.grid.x_nodes(), c)


def nonlocal_coefficients(v: np.ndarray, ops: DiscreteOperators, floor: float):
    """The t=0 trace r = q(x,0) of the nodal values ``v``, s = r_x, and the
    q-PDE's nonlocal coefficients a = 1 / (2 r^2) and b = s / (2 r^3), one
    value per x-node. Raises FloorViolation if r dips below ``floor``."""
    r = checked_trace(v, floor)
    s = ops.Gx1d @ r
    return r, s, 1.0 / (2.0 * r**2), s / (2.0 * r**3)


def residual_parts(v: np.ndarray, ops: DiscreteOperators, floor: float):
    """The residual F of the q-PDE at the nodal values ``v`` of q, and the
    pieces its derivative reuses.

    F(q) = q_xx - a q_xt + b q_t with the coefficients of
    ``nonlocal_coefficients``. The stencils go through their 1D factors on
    the (P, Q) array: q_t = Dt v, then q_xt = Gx1d q_t and q_xx = Gxx1d v,
    which equal Dxt v and Dxx v up to roundoff, so q_t is the one full-size
    matvec. Raises FloorViolation if r dips below ``floor``. Returns
    (r, s, a, b, q_xt, q_t, F) as node arrays.
    """
    r, s, a, b = nonlocal_coefficients(v, ops, floor)
    Cq = ops.apply2d(ops.Dt, v)
    Bq = ops.Gx1d @ Cq
    F = ops.Gxx1d @ v - a[:, None] * Bq + b[:, None] * Cq
    return r, s, a, b, Bq, Cq, F


def residual_adjoint(parts, dF: np.ndarray, ops: DiscreteOperators) -> np.ndarray:
    """The vector-Jacobian product of ``residual_parts``: the gradient of
    sum(dF * F) in v, a (P, Q) array, from the ``parts`` it returned at v."""
    r, s, a, b, Bq, Cq, _ = parts
    # Dxx^T dF - Dxt^T (a dF) + Dt^T (b dF), with Dxt^T = Dt^T Dx^T
    grad = ops.Gxx1dT @ dF + ops.apply2d(ops.DtT, b[:, None] * dF - ops.Gx1dT @ (a[:, None] * dF))
    # chain rule through the nonlocal t=0 traces r = q(.,0), s = r_x
    sum_B = (dF * Bq).sum(axis=1)
    sum_C = (dF * Cq).sum(axis=1)
    trace_grad = sum_B / r**3 - sum_C * (3.0 * s) / (2.0 * r**4)
    grad[:, 0] += trace_grad + ops.Gx1dT @ (sum_C / (2.0 * r**3))
    return grad


def frozen_operator(
    v: np.ndarray, ops: DiscreteOperators, floor: float, freeze_time_derivative: bool
):
    """The q-PDE with a and b frozen at the nodal values ``v``, as (L, target):
    L = Dxx - a Dxt + b Dt and None, or, with ``freeze_time_derivative``, the
    term b q_t frozen too, L = Dxx - a Dxt and target -b Dt v. Raises
    FloorViolation as ``nonlocal_coefficients`` does."""
    _, _, a, b = nonlocal_coefficients(v, ops, floor)
    L = (ops.Dxx - sp.diags(np.repeat(a, ops.Q)) @ ops.Dxt).tocsr()
    if freeze_time_derivative:
        return L, (-(ops.apply2d(ops.Dt, v) * b[:, None])).ravel()
    return (L + sp.diags(np.repeat(b, ops.Q)) @ ops.Dt).tocsr(), None


def boundary_traces_from_data(
    d: BoundaryData, grid: SpaceTimeGrid, diff_reg: float
) -> tuple[Signal, Signal]:
    """Boundary traces for the q-system at the observation point x_min, on the grid's t-nodes.

    q(x_min, t) = g0(t + x_min) and q_x(x_min, t) = g1(t + x_min) +
    g0'(t + x_min), where g0' is the Tikhonov-regularized derivative of g0
    with weight ``diff_reg``. Raises HorizonTooShort unless the record
    covers [x_min, x_min + T].
    """
    t_lo, t_hi = grid.x_min, grid.x_min + grid.t_max
    if d.g0.t0 > t_lo + 1e-9 or d.g0.t_end + 1e-9 < t_hi:
        raise HorizonTooShort(f"data cover t in [{d.g0.t0}, {d.g0.t_end}] but traces need "
                              f"[{t_lo:.6g}, {t_hi:.6g}]")
    dg0 = tikhonov_differentiate(d.g0, diff_reg)
    tq = grid.t_nodes() + grid.x_min
    g0_vals = np.interp(tq, d.g0.times(), d.g0.samples)
    g1_vals = np.interp(tq, d.g1.times(), d.g1.samples)
    dg0_vals = np.interp(tq, dg0.times(), dg0.samples)
    return Signal(0.0, grid.dt, g0_vals), Signal(0.0, grid.dt, g1_vals + dg0_vals)


def check_traces_on_t_nodes(grid: SpaceTimeGrid, *traces: Signal) -> None:
    """Raise ValueError unless each trace samples the grid's t-nodes: t0 = 0, dt, nt + 1 values."""
    for trace in traces:
        if (trace.t0, trace.dt, trace.samples.size) != (0.0, grid.dt, grid.nt + 1):
            raise ValueError("boundary traces must be sampled on the grid's t-nodes")
