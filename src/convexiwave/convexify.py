"""The weighted strictly-convexifiable objective and its exact discrete gradient.

The objective is the quadrature of the exponentially weighted squared residual
of the nonlocal PDE for q, plus boundary-trace penalties at both ends of the
spatial interval and a discrete-H2 regularization term. This module owns the
objective, its gradient and the convexity probes; the residual comes from
``transform.residual_parts`` and every stencil, quadrature weight and the H2
Gram matrix from ``grid.operators_for``. ``evaluate`` returns the objective
together with every stencil image its gradient needs, and ``gradient`` builds
the gradient from that record alone, so a descent step that accepts a trial
point never applies a stencil to it again. Per evaluation the stencil images
are q_t = Dt v (the one full-size matvec), q_xt = Gx1d q_t and
q_xx = Gxx1d v (1D x-stencils on the (P, Q) array), q_x at the two ends only
(``Gx_ends`` v, a 2-row product) and H2 v. The gradient is the exact
derivative of the discretized objective: the chain rule runs through the
stencil transposes, with Dxt^T = Dt^T Dx^T so the PDE term's adjoint takes one
full-size matvec, then the nonlocal t=0 row, the weight, and the penalties.
Convexity on the admissible set is probed numerically through
Bregman-divergence sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def carleman_weight(grid: SpaceTimeGrid, lam: float, alpha: float) -> np.ndarray:
    """W(x, t) = exp(-2 lam (x + alpha t)) at every node.

    Raises ValueError if W is not finite, which a huge ``lam`` can cause.
    """
    x = grid.x_nodes()[:, None]
    t = grid.t_nodes()[None, :]
    W = np.exp(-2.0 * lam * (x + alpha * t))
    if not np.all(np.isfinite(W)):
        raise ValueError(f"Carleman weight is not finite at lam={lam!r}")
    return W


@dataclass(frozen=True)
class ObjectiveContext:
    """Frozen bundle of everything the objective needs besides the iterate.

    ``make_context`` builds it. The Carleman weight W enters only through the
    products the objective multiplies by: ``w2W`` = w2 W (area quadrature)
    and ``wtW0``/``wtWM`` = wt W at x_min/x_max (time-line quadrature at the
    two ends).
    """

    grid: SpaceTimeGrid
    q_eps: np.ndarray
    qx_eps: np.ndarray
    params: ConvexParams
    q_floor: float
    ops: DiscreteOperators
    w2W: np.ndarray
    wtW0: np.ndarray
    wtWM: np.ndarray


def make_context(
    grid: SpaceTimeGrid,
    q_eps: Signal | np.ndarray,
    qx_eps: Signal | np.ndarray,
    params: ConvexParams,
    c_upper: float = DEFAULT_C_UPPER,
) -> ObjectiveContext:
    """The objective's context for boundary traces sampled on the grid's t-nodes.

    Raises ValueError if a trace has the wrong length or the Carleman weight
    is not finite.
    """
    qe = np.asarray(q_eps.samples if isinstance(q_eps, Signal) else q_eps, dtype=float)
    qxe = np.asarray(qx_eps.samples if isinstance(qx_eps, Signal) else qx_eps, dtype=float)
    if qe.shape != (grid.nt + 1,) or qxe.shape != (grid.nt + 1,):
        raise ValueError("boundary traces must be sampled on the grid's t-nodes")
    W = carleman_weight(grid, params.lam, params.alpha)
    ops = operators_for(grid)
    return ObjectiveContext(
        grid, qe, qxe, params, q_floor_from_c_upper(c_upper),
        ops, ops.w2 * W, ops.wt * W[0], ops.wt * W[-1],
    )


@dataclass(frozen=True)
class Evaluation:
    """The objective at one iterate and the pieces its gradient reuses.

    ``v`` holds the iterate's nodal values; ``r`` to ``F`` are the outputs of
    ``transform.residual_parts``; ``qx_ends`` = ``Gx_ends`` v holds q_x on
    the rows x_min and x_max, shape (2, Q), the only rows of Dx v the
    boundary penalties read; ``H2v`` = H2 v, flattened.
    """

    v: np.ndarray
    r: np.ndarray
    s: np.ndarray
    a: np.ndarray
    b: np.ndarray
    Bq: np.ndarray
    Cq: np.ndarray
    F: np.ndarray
    qx_ends: np.ndarray
    H2v: np.ndarray
    J: float


def evaluate(v: np.ndarray, ctx: ObjectiveContext) -> Evaluation:
    """Weighted residual + boundary penalties + H2 regularization at nodal values ``v``.

    Raises FloorViolation if the t=0 row of ``v`` dips below ``ctx.q_floor``.
    """
    ops = ctx.ops
    r, s, a, b, Bq, Cq, F = residual_parts(v, ops, ctx.q_floor)
    total = float((ctx.w2W * F**2).sum())
    # boundary penalties: value and x-derivative at x_min, x-derivative at x_max
    qx_ends = ops.Gx_ends @ v
    total += float((ctx.wtW0 * (v[0] - ctx.q_eps) ** 2).sum())
    total += float((ctx.wtW0 * (qx_ends[0] - ctx.qx_eps) ** 2).sum())
    total += float((ctx.wtWM * qx_ends[1] ** 2).sum())
    H2v = ops.H2 @ v.ravel()
    total += ctx.params.beta * float(v.ravel() @ H2v)
    return Evaluation(v, r, s, a, b, Bq, Cq, F, qx_ends, H2v, total)


def gradient(e: Evaluation, ctx: ObjectiveContext) -> np.ndarray:
    """Exact gradient of the discretized objective at ``e.v``, from its evaluation alone."""
    ops = ctx.ops
    dF = 2.0 * ctx.w2W * e.F  # dJ/dF
    # Dxx^T dF - Dxt^T (a dF) + Dt^T (b dF), with Dxt^T = Dt^T Dx^T
    grad = ops.Gxx1dT @ dF + ops.apply2d(
        ops.DtT, e.b[:, None] * dF - ops.Gx1dT @ (e.a[:, None] * dF)
    )
    # chain rule through the nonlocal t=0 traces r = q(.,0), s = r_x
    sum_B = (dF * e.Bq).sum(axis=1)
    sum_C = (dF * e.Cq).sum(axis=1)
    trace_grad = sum_B / e.r**3 - sum_C * (3.0 * e.s) / (2.0 * e.r**4)
    grad[:, 0] += trace_grad + ops.Gx1dT @ (sum_C / (2.0 * e.r**3))
    # boundary penalties; the x-derivative ones through the 2-row Gx_ends^T
    grad[0] += 2.0 * ctx.wtW0 * (e.v[0] - ctx.q_eps)
    dqx_ends = np.array([ctx.wtW0 * (e.qx_ends[0] - ctx.qx_eps), ctx.wtWM * e.qx_ends[1]])
    grad += ops.Gx_endsT @ (2.0 * dqx_ends)
    # H2 regularization
    grad += 2.0 * ctx.params.beta * e.H2v.reshape(grad.shape)
    return grad


def evaluate_J(q: QField, ctx: ObjectiveContext) -> float:
    """Weighted residual + boundary penalties + H2 regularization."""
    return evaluate(q.values.values, ctx).J


def gradient_J(q: QField, ctx: ObjectiveContext) -> Field2D:
    """Exact gradient of the discretized objective with respect to nodal values."""
    return Field2D(q.grid, gradient(evaluate(q.values.values, ctx), ctx))


def bregman_divergence(v: np.ndarray, h: np.ndarray, ctx: ObjectiveContext) -> float:
    """J(v + h) - J(v) - <grad J(v), h> at nodal values ``v`` and perturbation ``h``;
    nonnegativity over a set certifies convexity."""
    e = evaluate(v, ctx)
    return evaluate(v + h, ctx).J - e.J - float(np.sum(gradient(e, ctx) * h))


# ---------------------------------------------------------------------------
# Convexity probing
# ---------------------------------------------------------------------------

# q of the null scatterer (c = 1 everywhere), the centre of the sampled pairs.
Q_BACKGROUND = 0.5


def random_smooth_field(grid: SpaceTimeGrid, rng: np.random.Generator) -> np.ndarray:
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
    return vals / modes


def sample_admissible_pair(
    grid: SpaceTimeGrid,
    rng: np.random.Generator,
    radius: float,
    q_floor: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Nodal values of a random admissible iterate around the null-scatterer and a perturbation.

    Each of the two draws is a ``random_smooth_field`` scaled to H2 norm
    radius / 2 times a uniform factor in [0.3, 1), then shrunk if its t=0 row
    would use more than half the headroom above the floor. So both q and
    q + h stay inside the H2-ball of the given radius around the constant
    field ``Q_BACKGROUND`` and keep their t=0 rows above the floor. Raises
    ValueError if the pair is not finite.
    """
    margin = 0.02
    headroom = Q_BACKGROUND - q_floor - margin
    if headroom <= 0:
        raise ValueError("floor leaves no admissible headroom around the base")
    out = []
    for _ in range(2):
        f = random_smooth_field(grid, rng)
        scale = radius / 2.0 * rng.uniform(0.3, 1.0)
        norm = np.sqrt(h2_norm_sq(f, grid))
        if norm != 0:
            f = f * (scale / norm)
        peak = np.max(np.abs(f[:, 0]))
        cap = headroom / 2.0
        if peak > cap:
            f = f * (cap / peak)
        out.append(f)
    if not np.all(np.isfinite(out)):
        raise ValueError("sampled pair contains non-finite values")
    h1, h2 = out
    return Q_BACKGROUND + h1, h2


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
        pairs.append((Q_BACKGROUND + (q_vals - Q_BACKGROUND) * mask, h * mask))
    q_eps = np.full(grid.nt + 1, Q_BACKGROUND)
    qx_eps = np.zeros(grid.nt + 1)
    result: dict[float, float] = {}
    for lam in lambdas:
        ctx = make_context(grid, q_eps, qx_eps, ConvexParams(lam=float(lam)))
        best = np.inf
        for q_vals, h in pairs:
            d = bregman_divergence(q_vals, h, ctx)
            h_sq = float(np.sum(ctx.w2W * h**2))
            best = min(best, d / h_sq)
        result[float(lam)] = float(best)
    return result


def gradient_audit(grid: SpaceTimeGrid, trials: int, seed: int = 0) -> list[float]:
    """Relative error of the exact gradient against central differences of J.

    For each of ``trials`` sampled admissible pairs (q, h) in the H2-ball of
    radius 5 (``sample_admissible_pair``), compares <grad J(q), h> with
    (J(q + s h) - J(q - s h)) / (2 s) at s = 1e-6 and returns
    |analytic - fd| / |fd| per trial. The boundary data is the
    null-scatterer's, the floor follows from ``DEFAULT_C_UPPER``, and the
    objective settings are the ``ConvexParams`` defaults.
    """
    ctx = make_context(
        grid, np.full(grid.nt + 1, Q_BACKGROUND), np.zeros(grid.nt + 1), ConvexParams()
    )
    rng = np.random.Generator(np.random.Philox(seed))
    s = 1e-6
    errors = []
    for _ in range(trials):
        v, dv = sample_admissible_pair(grid, rng, 5.0, ctx.q_floor)
        analytic = float(np.sum(gradient(evaluate(v, ctx), ctx) * dv))
        fd = (evaluate(v + s * dv, ctx).J - evaluate(v - s * dv, ctx).J) / (2.0 * s)
        errors.append(abs(analytic - fd) / max(abs(fd), 1e-300))
    return errors
