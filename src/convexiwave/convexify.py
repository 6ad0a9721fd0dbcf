"""The weighted strictly-convexifiable objective and its exact discrete gradient.

The objective is the quadrature of the exponentially weighted squared residual
of the nonlocal PDE for q, plus boundary-trace penalties at both ends of the
spatial interval and a discrete-H2 regularization term. This module owns the
objective, its gradient and the convexity probes; the residual comes from
``transform.residual_parts`` and every stencil, quadrature weight and the H2
Gram matrix from ``grid.operators_for``. ``evaluate`` returns the objective
together with every stencil image its gradient needs, and ``gradient`` builds
the gradient from that record alone, so a descent step that accepts a trial
point never applies a stencil to it again. The gradient is the exact
derivative of the discretized objective: the chain rule runs through the
stencil transposes, the nonlocal t=0 row, the weight, and the penalties.
Convexity on the admissible set is probed numerically through
Bregman-divergence sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import (
    DiscreteOperators,
    Field2D,
    Signal,
    SpaceTimeGrid,
    h2_norm_sq,
    operators_for,
)
from .transform import DEFAULT_C_UPPER, QField, q_floor_from_c_upper, residual_parts


@dataclass(frozen=True)
class ConvexParams:
    """Weight exponents and regularization weight."""

    lam: float = 2.0
    alpha: float = 0.3
    beta: float = 1e-9

    def __post_init__(self):
        if self.lam < 0 or not np.isfinite(self.lam):
            raise ValueError("lam must be finite and nonnegative")
        if self.alpha <= 0 or not np.isfinite(self.alpha):
            raise ValueError("alpha must be positive and finite")
        if not (0 < self.beta < 1):
            raise ValueError("beta must lie in (0, 1)")


def carleman_weight(grid: SpaceTimeGrid, lam: float, alpha: float) -> Field2D:
    """W(x, t) = exp(-2 lam (x + alpha t)) at every node."""
    x = grid.x_nodes()[:, None]
    t = grid.t_nodes()[None, :]
    return Field2D(grid, np.exp(-2.0 * lam * (x + alpha * t)))


@dataclass
class ObjectiveContext:
    """Immutable bundle of everything the objective needs besides the iterate."""

    grid: SpaceTimeGrid
    q_eps: np.ndarray
    qx_eps: np.ndarray
    params: ConvexParams
    q_floor: float
    weight: np.ndarray = field(init=False)
    ops: DiscreteOperators = field(init=False)

    def __post_init__(self):
        self.q_eps = np.asarray(self.q_eps, dtype=float)
        self.qx_eps = np.asarray(self.qx_eps, dtype=float)
        Q = self.grid.nt + 1
        if self.q_eps.shape != (Q,) or self.qx_eps.shape != (Q,):
            raise ValueError("boundary traces must be sampled on the grid's t-nodes")
        self.weight = carleman_weight(self.grid, self.params.lam, self.params.alpha).values
        self.ops = operators_for(self.grid)


def make_context(
    grid: SpaceTimeGrid,
    q_eps: Signal | np.ndarray,
    qx_eps: Signal | np.ndarray,
    params: ConvexParams,
    c_upper: float = DEFAULT_C_UPPER,
) -> ObjectiveContext:
    qe = q_eps.samples if isinstance(q_eps, Signal) else np.asarray(q_eps, float)
    qxe = qx_eps.samples if isinstance(qx_eps, Signal) else np.asarray(qx_eps, float)
    return ObjectiveContext(grid, qe, qxe, params, q_floor_from_c_upper(c_upper))


@dataclass(frozen=True)
class Evaluation:
    """The objective at one iterate and the pieces its gradient reuses.

    ``v`` holds the iterate's nodal values; ``r`` to ``F`` are the outputs of
    ``transform.residual_parts``; ``qx`` = Dx v and ``H2v`` = H2 v, flattened.
    """

    v: np.ndarray
    r: np.ndarray
    s: np.ndarray
    a: np.ndarray
    b: np.ndarray
    Bq: np.ndarray
    Cq: np.ndarray
    F: np.ndarray
    qx: np.ndarray
    H2v: np.ndarray
    J: float


def evaluate(v: np.ndarray, ctx: ObjectiveContext) -> Evaluation:
    """Weighted residual + boundary penalties + H2 regularization at nodal values ``v``.

    Raises FloorViolation if the t=0 row of ``v`` dips below ``ctx.q_floor``.
    """
    ops = ctx.ops
    r, s, a, b, Bq, Cq, F = residual_parts(v, ops, ctx.q_floor)
    W = ctx.weight
    total = float(np.sum(ops.w2 * W * F**2))
    # boundary penalties: value and x-derivative at x_min, x-derivative at x_max
    qx = ops.apply2d(ops.Dx, v)
    total += float(np.sum(ops.wt * W[0] * (v[0] - ctx.q_eps) ** 2))
    total += float(np.sum(ops.wt * W[0] * (qx[0] - ctx.qx_eps) ** 2))
    total += float(np.sum(ops.wt * W[-1] * qx[-1] ** 2))
    H2v = ops.H2 @ v.ravel()
    total += ctx.params.beta * float(v.ravel() @ H2v)
    return Evaluation(v, r, s, a, b, Bq, Cq, F, qx, H2v, total)


def gradient(e: Evaluation, ctx: ObjectiveContext) -> np.ndarray:
    """Exact gradient of the discretized objective at ``e.v``, from its evaluation alone."""
    ops = ctx.ops
    P, Q = ops.P, ops.Q
    W = ctx.weight
    MF = ops.w2 * W * e.F
    grad = 2.0 * (
        (ops.DxxT @ MF.ravel())
        - (ops.DxtT @ (e.a[:, None] * MF).ravel())
        + (ops.DtT @ (e.b[:, None] * MF).ravel())
    ).reshape(P, Q)
    # chain rule through the nonlocal t=0 traces r = q(.,0), s = r_x
    sum_B = np.sum(MF * e.Bq, axis=1)
    sum_C = np.sum(MF * e.Cq, axis=1)
    trace_grad = sum_B / e.r**3 - sum_C * (3.0 * e.s) / (2.0 * e.r**4)
    trace_grad = trace_grad + ops.Gx1dT @ (sum_C / (2.0 * e.r**3))
    grad[:, 0] += 2.0 * trace_grad
    # boundary penalties
    grad[0] += 2.0 * ops.wt * W[0] * (e.v[0] - ctx.q_eps)
    Z = np.zeros((P, Q))
    Z[0] = ops.wt * W[0] * (e.qx[0] - ctx.qx_eps)
    Z[-1] = ops.wt * W[-1] * e.qx[-1]
    grad += 2.0 * (ops.DxT @ Z.ravel()).reshape(P, Q)
    # H2 regularization
    grad += 2.0 * ctx.params.beta * e.H2v.reshape(P, Q)
    return grad


def evaluate_J(q: QField, ctx: ObjectiveContext) -> float:
    """Weighted residual + boundary penalties + H2 regularization."""
    return evaluate(q.values.values, ctx).J


def gradient_J(q: QField, ctx: ObjectiveContext) -> Field2D:
    """Exact gradient of the discretized objective with respect to nodal values."""
    return Field2D(q.grid, gradient(evaluate(q.values.values, ctx), ctx))


def bregman_divergence(q: QField, h: Field2D, ctx: ObjectiveContext) -> float:
    """J(q + h) - J(q) - <grad J(q), h>; nonnegativity over a set certifies convexity."""
    v = q.values.values
    e = evaluate(v, ctx)
    return evaluate(v + h.values, ctx).J - e.J - float(np.sum(gradient(e, ctx) * h.values))


# ---------------------------------------------------------------------------
# Convexity probing
# ---------------------------------------------------------------------------

# q of the null scatterer (c = 1 everywhere), the centre of the sampled pairs.
Q_BACKGROUND = 0.5


def random_smooth_field(grid: SpaceTimeGrid, rng: np.random.Generator) -> Field2D:
    """Low-frequency random trigonometric field: three modes per axis, unit-scale coefficients."""
    modes = 3
    x = grid.x_nodes()[:, None]
    t = grid.t_nodes()[None, :]
    Lx = grid.x_max - grid.x_min
    Lt = grid.t_max
    vals = np.zeros(grid.shape)
    for k in range(modes):
        for l in range(modes):
            akl = rng.normal()
            bkl = rng.normal()
            phix = np.cos(np.pi * k * (x - grid.x_min) / Lx)
            phit = np.cos(np.pi * l * t / Lt)
            psix = np.sin(np.pi * (k + 1) * (x - grid.x_min) / Lx)
            psit = np.sin(np.pi * (l + 1) * t / Lt)
            vals += akl * phix * phit + bkl * psix * psit
    return Field2D(grid, vals / modes)


def _scaled_to_ball(f: Field2D, radius: float) -> Field2D:
    norm = np.sqrt(h2_norm_sq(f))
    if norm == 0:
        return f
    return Field2D(f.grid, f.values * (radius / norm))


def sample_admissible_pair(
    grid: SpaceTimeGrid,
    rng: np.random.Generator,
    radius: float,
    q_floor: float,
) -> tuple[Field2D, Field2D]:
    """A random admissible iterate around the null-scatterer and a perturbation.

    Both q and q + h stay inside the H2-ball of the given radius around the
    constant field ``Q_BACKGROUND`` and keep their t=0 rows above the floor.
    """
    margin = 0.02
    headroom = Q_BACKGROUND - q_floor - margin
    if headroom <= 0:
        raise ValueError("floor leaves no admissible headroom around the base")
    out = []
    for _ in range(2):
        f = _scaled_to_ball(random_smooth_field(grid, rng), radius / 2.0 * rng.uniform(0.3, 1.0))
        peak = np.max(np.abs(f.values[:, 0]))
        cap = headroom / 2.0
        if peak > cap:
            f = Field2D(grid, f.values * (cap / peak))
        out.append(f)
    h1, h2 = out
    return Field2D(grid, Q_BACKGROUND + h1.values), h2


def convexity_scan(
    grid: SpaceTimeGrid,
    lambdas,
    n_pairs: int,
    radius: float,
    seed: int = 0,
) -> dict[float, float]:
    """Minimum normalized Bregman divergence over sampled pairs, per weight exponent.

    The boundary data is the null-scatterer's (q_eps = 1/2, qx_eps = 0).
    Strict convexity holds on the set of iterates sharing the prescribed
    boundary data, so the sampled perturbations are masked to vanish to
    second order at the observation boundary (h = h_x = 0 at x = x_min).
    Each divergence is reported relative to the Carleman-weighted L2 norm of
    its perturbation: the raw values scale with the total mass of the weight,
    which shrinks with the exponent and would hide the convexification trend.
    The other objective settings are the ``ConvexParams`` defaults.
    """
    floor = q_floor_from_c_upper(DEFAULT_C_UPPER)
    rng = np.random.Generator(np.random.Philox(seed))
    x = grid.x_nodes()[:, None]
    span = grid.x_max - grid.x_min
    mask = ((x - grid.x_min) / span) ** 2
    pairs = []
    for _ in range(n_pairs):
        q_vals, h = sample_admissible_pair(grid, rng, radius, floor)
        pairs.append((
            Field2D(grid, Q_BACKGROUND + (q_vals.values - Q_BACKGROUND) * mask),
            Field2D(grid, h.values * mask),
        ))
    q_eps = np.full(grid.nt + 1, Q_BACKGROUND)
    qx_eps = np.zeros(grid.nt + 1)
    result: dict[float, float] = {}
    for lam in lambdas:
        ctx = make_context(grid, q_eps, qx_eps, ConvexParams(lam=float(lam)))
        best = np.inf
        for q_vals, h in pairs:
            q = QField(grid, q_vals, floor)
            d = bregman_divergence(q, h, ctx)
            h_sq = float(np.sum(ctx.ops.w2 * ctx.weight * h.values**2))
            best = min(best, d / h_sq)
        result[float(lam)] = float(best)
    return result
