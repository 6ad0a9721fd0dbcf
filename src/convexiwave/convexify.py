"""The weighted strictly-convexifiable objective and its exact discrete gradient.

The objective is the quadrature of the exponentially weighted squared residual
of the nonlocal PDE for q, plus boundary-trace penalties at both ends of the
spatial interval and a discrete-H2 regularization term. This module owns the
objective, its gradient and the convexity probes; the residual and its adjoint
come from ``transform``, and every stencil, quadrature weight and the H2 Gram
matrix from ``grid.operators_for``. ``evaluate`` returns the objective with
every stencil image its gradient needs (those of ``transform.residual_parts``,
q_x at the two ends only, and H2 v), and ``gradient`` builds the exact
derivative of the discretized objective from that record alone, so a descent
step that accepts a trial point never applies a stencil to it again. Given a
``bound``, ``evaluate`` returns None if J's partial sum after the PDE
term or after the two x_min penalties, or J, exceeds it, so most rejected
Armijo trials of ``solver.descend`` skip the H2 product: on the benchmark's
simulated media those two sums decide 95-100 % of the ~2320 rejected trials
per inversion, and checks after the other terms decided 0-1. This is exact: every
term is a nonnegatively weighted sum of squares (v^T H2 v includes the
identity's weighted squared norm of v), rounded addition is monotone, and
the terms are added in the same order with or without a bound, so every
accept/reject decision and every accepted J is bit-identical.
Convexity on the admissible set is probed numerically through
Bregman-divergence sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import INCIDENT_LEVEL
from .grid import (
    DiscreteOperators,
    Field2D,
    Signal,
    SpaceTimeGrid,
    h2_norm_sq,
    operators_for,
)
from .transform import (
    DEFAULT_C_UPPER, QField, check_traces_on_t_nodes, q_floor_from_c_upper, residual_adjoint,
    residual_parts,
)


# The time factor alpha of the Carleman weight W = exp(-2 lam (x + alpha t)).
ALPHA = 0.3
# The weight beta of the H2 term. It is numerically inert: at the ``test1``
# answer, beta * v^T H2 v = 1.5e-6 against J = 0.37, and beta = 1e-30 moves c
# by at most 1e-6. The descent budgets, not beta, regularize the answer
# (``solver.DescentConfig``).
BETA = 1e-9
# The H2 radius of the ball around the null scatterer's q that the audits sample.
AUDIT_RADIUS = 5.0


@dataclass(frozen=True)
class ConvexParams:
    """The Carleman weight's exponent lam, the objective's one setting."""

    lam: float = 2.0

    def __post_init__(self):
        if self.lam < 0 or not np.isfinite(self.lam):
            raise ValueError("lam must be finite and nonnegative")


def carleman_weight(grid: SpaceTimeGrid, lam: float) -> np.ndarray:
    """W(x, t) = exp(-2 lam (x + ``ALPHA`` t)) at every node.

    Raises ValueError unless W is finite and positive at every node. A huge
    ``lam`` makes it NaN at the origin; a large ``lam`` or a grid far from
    the origin makes it underflow to 0 there, which would drop those nodes
    from J.
    """
    x = grid.x_nodes()[:, None]
    t = grid.t_nodes()[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        W = np.exp(-2.0 * lam * (x + ALPHA * t))
    if not (np.all(np.isfinite(W)) and W.min() > 0):
        raise ValueError(
            f"Carleman weight is not finite and positive at every node for lam={lam!r}"
        )
    return W


@dataclass(frozen=True)
class ObjectiveContext:
    """Frozen bundle of everything the objective needs besides the iterate.

    ``make_context`` builds it. The Carleman weight W enters only through the
    products the objective multiplies by: ``w2W`` = w2 W (area quadrature)
    and ``wtW0``/``wtWM`` = wt W at x_min/x_max (time-line quadrature at the
    two ends). The grid is ``ops.grid``.
    """

    q_eps: np.ndarray
    qx_eps: np.ndarray
    q_floor: float
    ops: DiscreteOperators
    w2W: np.ndarray
    wtW0: np.ndarray
    wtWM: np.ndarray


def make_context(
    grid: SpaceTimeGrid, q_eps: Signal, qx_eps: Signal, params: ConvexParams, c_upper: float
) -> ObjectiveContext:
    """The objective's context for boundary traces sampled on the grid's t-nodes.

    Raises ValueError as ``transform.check_traces_on_t_nodes`` does, if the
    Carleman weight is not finite and positive at every node, or as
    ``transform.q_floor_from_c_upper`` does.
    """
    check_traces_on_t_nodes(grid, q_eps, qx_eps)
    W = carleman_weight(grid, params.lam)
    ops = operators_for(grid)
    return ObjectiveContext(
        q_eps.samples, qx_eps.samples, q_floor_from_c_upper(c_upper),
        ops, ops.w2 * W, ops.wt * W[0], ops.wt * W[-1],
    )


@dataclass(frozen=True)
class Evaluation:
    """The objective at one iterate and the pieces its gradient reuses.

    ``v`` holds the iterate's nodal values; ``parts`` is the tuple that
    ``transform.residual_parts`` returns, F last; ``qx_ends`` = ``Gx_ends`` v
    holds q_x on the rows x_min and x_max, shape (2, Q), the only rows of
    Dx v the boundary penalties read; ``H2v`` = H2 v, flattened.
    """

    v: np.ndarray
    parts: tuple
    qx_ends: np.ndarray
    H2v: np.ndarray
    J: float


def evaluate(v: np.ndarray, ctx: ObjectiveContext, bound: float = np.inf) -> Evaluation | None:
    """Weighted residual + boundary penalties + H2 regularization at nodal values ``v``.

    Returns None, possibly before adding every term, if J exceeds ``bound``
    (see the module docstring for why a partial sum decides this); a NaN
    bound or a NaN partial sum never does. Raises FloorViolation if the t=0
    row of ``v`` dips below ``ctx.q_floor``.
    """
    ops = ctx.ops
    parts = residual_parts(v, ops, ctx.q_floor)
    total = float((ctx.w2W * parts[-1] ** 2).sum())
    if total > bound:
        return None
    # boundary penalties: value and x-derivative at x_min, x-derivative at x_max
    total += float((ctx.wtW0 * (v[0] - ctx.q_eps) ** 2).sum())
    qx_ends = ops.Gx_ends @ v
    total += float((ctx.wtW0 * (qx_ends[0] - ctx.qx_eps) ** 2).sum())
    if total > bound:
        return None
    total += float((ctx.wtWM * qx_ends[1] ** 2).sum())
    H2v = ops.H2 @ v.ravel()
    total += BETA * float(v.ravel() @ H2v)
    if total > bound:
        return None
    return Evaluation(v, parts, qx_ends, H2v, total)


def gradient(e: Evaluation, ctx: ObjectiveContext) -> np.ndarray:
    """Exact gradient of the discretized objective at ``e.v``, from its evaluation alone."""
    ops = ctx.ops
    grad = residual_adjoint(e.parts, 2.0 * ctx.w2W * e.parts[-1], ops)  # dJ/dF = 2 w2W F
    # boundary penalties; the x-derivative ones through the 2-row Gx_ends^T
    grad[0] += 2.0 * ctx.wtW0 * (e.v[0] - ctx.q_eps)
    dqx_ends = np.array([ctx.wtW0 * (e.qx_ends[0] - ctx.qx_eps), ctx.wtWM * e.qx_ends[1]])
    grad += ops.Gx_endsT @ (2.0 * dqx_ends)
    # H2 regularization
    grad += 2.0 * BETA * e.H2v.reshape(grad.shape)
    return grad


def evaluate_J(q: QField, ctx: ObjectiveContext) -> float:
    """Weighted residual + boundary penalties + H2 regularization."""
    return evaluate(q.values.values, ctx).J


def gradient_J(q: QField, ctx: ObjectiveContext) -> Field2D:
    """Exact gradient of the discretized objective with respect to nodal values."""
    return Field2D(q.values.grid, gradient(evaluate(q.values.values, ctx), ctx))


def bregman_divergence(v: np.ndarray, h: np.ndarray, ctx: ObjectiveContext) -> float:
    """D = J(v + h) - J(v) - <grad J(v), h> at nodal values ``v`` and perturbation ``h``;
    nonnegativity over a set certifies convexity. Raises ValueError, as D is then
    rounding error, if |D| < 1e4 eps (|J(v + h)| + |J(v)| + |<grad J(v), h>|)."""
    e = evaluate(v, ctx)
    J_h, slope = evaluate(v + h, ctx).J, float(np.sum(gradient(e, ctx) * h))
    d = J_h - e.J - slope
    if abs(d) < 1e4 * np.finfo(float).eps * (abs(J_h) + abs(e.J) + abs(slope)):
        raise ValueError(f"the Bregman divergence {d:.3g} is within rounding of its terms")
    return d


# ---------------------------------------------------------------------------
# Convexity probing
# ---------------------------------------------------------------------------

def _null_scatterer_context(grid: SpaceTimeGrid, params: ConvexParams) -> ObjectiveContext:
    """The audits' objective: null-scatterer data and the ``DEFAULT_C_UPPER`` floor."""
    q_eps = Signal(0.0, grid.dt, np.full(grid.nt + 1, INCIDENT_LEVEL))
    qx_eps = Signal(0.0, grid.dt, np.zeros(grid.nt + 1))
    return make_context(grid, q_eps, qx_eps, params, DEFAULT_C_UPPER)


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
    grid: SpaceTimeGrid, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Nodal values of a random admissible iterate around the null-scatterer and a perturbation.

    Each of the two draws is a ``random_smooth_field`` scaled to H2 norm
    ``AUDIT_RADIUS`` / 2 times a uniform factor in [0.3, 1), then shrunk if its
    t=0 row would use more than half the headroom above the ``DEFAULT_C_UPPER``
    floor, less a 0.02 margin. So q and q + h stay in the H2-ball of radius
    ``AUDIT_RADIUS`` around the null scatterer's q = ``INCIDENT_LEVEL`` and
    keep their t=0 rows above the floor. Raises ValueError unless finite.
    """
    cap = (INCIDENT_LEVEL - q_floor_from_c_upper(DEFAULT_C_UPPER) - 0.02) / 2.0
    out = []
    for _ in range(2):
        f = random_smooth_field(grid, rng)
        scale = AUDIT_RADIUS / 2.0 * rng.uniform(0.3, 1.0)
        norm = np.sqrt(h2_norm_sq(f, grid))
        if norm != 0:
            f = f * (scale / norm)
        peak = np.max(np.abs(f[:, 0]))
        if peak > cap:
            f = f * (cap / peak)
        out.append(f)
    if not np.all(np.isfinite(out)):
        raise ValueError("sampled pair contains non-finite values")
    h1, h2 = out
    return INCIDENT_LEVEL + h1, h2


def convexity_scan(
    grid: SpaceTimeGrid, lambdas, n_pairs: int, seed: int = 0
) -> dict[float, float]:
    """Minimum normalized Bregman divergence over sampled pairs, per weight exponent.

    The objective is ``_null_scatterer_context``'s with ``ConvexParams(lam)``.
    Strict convexity holds on the set of iterates sharing the prescribed
    boundary data, so the sampled perturbations are masked to vanish to
    second order at the observation boundary (h = h_x = 0 at x = x_min).
    Each divergence is reported relative to the Carleman-weighted L2 norm of
    its perturbation: the raw values scale with the total mass of the weight,
    which shrinks with the exponent and would hide the convexification trend.
    Raises ValueError as ``sample_admissible_pair``, ``ConvexParams``, ``make_context``
    and ``bregman_divergence`` do, or if an h's weighted norm underflows.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    x = grid.x_nodes()[:, None]
    span = grid.x_max - grid.x_min
    mask = ((x - grid.x_min) / span) ** 2
    pairs = []
    for _ in range(n_pairs):
        q_vals, h = sample_admissible_pair(grid, rng)
        pairs.append((INCIDENT_LEVEL + (q_vals - INCIDENT_LEVEL) * mask, h * mask))
    result: dict[float, float] = {}
    for lam in lambdas:
        ctx = _null_scatterer_context(grid, ConvexParams(lam=float(lam)))
        best = np.inf
        for q_vals, h in pairs:
            h_sq = float(np.sum(ctx.w2W * h**2))
            if h_sq == 0:
                raise ValueError("the weighted squared norm of a perturbation underflows to 0")
            best = min(best, bregman_divergence(q_vals, h, ctx) / h_sq)
        result[float(lam)] = float(best)
    return result


def gradient_audit(grid: SpaceTimeGrid, trials: int, seed: int = 0) -> list[float]:
    """Relative error of the exact gradient against central differences of J.

    For each of ``trials`` sampled admissible pairs (q, h) in the H2-ball of
    radius ``AUDIT_RADIUS`` (``sample_admissible_pair``), compares
    <grad J(q), h> with (J(q + s h) - J(q - s h)) / (2 s) at s = 1e-6 and returns
    |analytic - fd| / |fd| per trial, on ``_null_scatterer_context``'s objective.
    """
    ctx = _null_scatterer_context(grid, ConvexParams())
    rng = np.random.Generator(np.random.Philox(seed))
    s = 1e-6
    errors = []
    for _ in range(trials):
        v, dv = sample_admissible_pair(grid, rng)
        analytic = float(np.sum(gradient(evaluate(v, ctx), ctx) * dv))
        fd = (evaluate(v + s * dv, ctx).J - evaluate(v - s * dv, ctx).J) / (2.0 * s)
        errors.append(abs(analytic - fd) / max(abs(fd), 1e-300))
    return errors
