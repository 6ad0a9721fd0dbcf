"""End-to-end inversion: initialization, gradient descent, correction steps.

The initial iterate comes from a quasi-reversibility solve of the transport
problem satisfied by q_x when the nonlocal term is dropped. Descent minimizes
the weighted objective with Armijo backtracking. Whenever descent exhausts its
iteration budget without reaching the gradient tolerance, a correction step
solves the frozen-coefficient linear boundary value problem by the same
quasi-reversibility machinery and descent restarts from its solution; the
loop stops when two consecutive reconstructed profiles agree uniformly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .convexify import ConvexParams, ObjectiveContext, evaluate, gradient, make_context
from .errors import SingularSystem
from .forward import MediumProfile
from .grid import Field2D, Signal, SpaceTimeGrid, cumulative_trapezoid, operators_for
from .transform import (
    DEFAULT_C_UPPER,
    BoundaryData,
    QField,
    boundary_traces_from_data,
    c_from_q,
    checked_trace,
    q_floor_from_c_upper,
)


@dataclass(frozen=True)
class QRConfig:
    """Quasi-reversibility regularization weight."""

    reg_eta: float = 1e-11

    def __post_init__(self):
        if not 0 < self.reg_eta < np.inf:
            raise ValueError("reg_eta must be positive and finite")


@dataclass(frozen=True)
class DescentConfig:
    eta_step: float = 0.1
    max_iters: int = 300
    grad_tol: float = 1e-7
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
    max_corrections: int = 1
    stop_linf: float = 1e-3
    redescent_iters: int = 2000

    def __post_init__(self):
        if not all(
            0 < x < np.inf for x in (self.eta_step, self.grad_tol, self.armijo_c1, self.stop_linf)
        ):
            raise ValueError("all tolerances and steps must be positive and finite")
        if not (0 < self.backtrack < 1):
            raise ValueError("backtrack factor must lie in (0, 1)")
        if self.max_iters < 1 or self.redescent_iters < 1 or self.max_corrections < 0:
            raise ValueError("iteration budgets must be positive")


# ---------------------------------------------------------------------------
# Quadratic least-squares machinery shared by both quasi-reversibility solves
# ---------------------------------------------------------------------------

# Largest relative normal-equation residual accepted from a direct solve. The
# normal matrices are positive definite, so the diagonal-pivot factorization
# is backward stable: on the benchmark's five simulated media at seeds 1 and 2
# the worst residual is 2.2e-12 on the 60x60 grid and 3.9e-11 on the 200x200
# grid (7.2e-11 with the partial-pivoting solve it replaced).
QR_RESIDUAL_TOL = 1e-6


def _row_selector(P: int, Q: int, row: int) -> sp.csr_matrix:
    cols = row * Q + np.arange(Q)
    return sp.csr_matrix((np.ones(Q), (np.arange(Q), cols)), shape=(Q, P * Q))


def solve_quadratic(terms, reg_ops, reg_weight_vec, reg_eta, n_unknowns):
    """Minimize sum_k ||w_k^(1/2) (L_k v - b_k)||^2 + reg_eta * sum_j ||w^(1/2) R_j v||^2.

    Assembles the normal equations and solves them by a sparse LU
    factorization with a symmetric fill-reducing ordering and the pivots
    taken on the diagonal. With positive weights the normal matrix is
    symmetric positive semidefinite, and positive definite once a term or
    ``reg_ops`` (the H2 operators include the identity) covers every
    unknown. Gaussian elimination of a positive definite matrix needs no
    pivoting for stability, so the diagonal pivots are safe; an unknown that
    nothing covers leaves an exactly zero pivot, which SuperLU reports.
    Returns (solution, relative_normal_residual); raises SingularSystem if
    the factorization fails, the solution is non-finite or its relative
    residual exceeds ``QR_RESIDUAL_TOL``.
    """
    normal = sp.csr_matrix((n_unknowns, n_unknowns))
    rhs = np.zeros(n_unknowns)
    for L, w, b in terms:
        Lw = L.T @ sp.diags(w)
        normal = normal + Lw @ L
        if b is not None:
            rhs = rhs + Lw @ b
    for R in reg_ops:
        normal = normal + reg_eta * (R.T @ sp.diags(reg_weight_vec) @ R)
    # The symmetric ordering pays only with the pivots kept on the diagonal:
    # with partial pivoting it took 534 s on the 200x200 correction system
    # (2-core VM), where all three settings together take under 2 s.
    try:
        factor = spla.splu(
            normal.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SingularSystem(f"quasi-reversibility normal equations failed: {exc}") from exc
    sol = factor.solve(rhs)
    if not np.all(np.isfinite(sol)):
        raise SingularSystem("quasi-reversibility solve produced non-finite values")
    res = normal @ sol - rhs
    rel_residual = float(np.linalg.norm(res) / max(np.linalg.norm(rhs), 1e-300))
    if not rel_residual <= QR_RESIDUAL_TOL:
        raise SingularSystem(
            f"quasi-reversibility normal residual {rel_residual:.3g} exceeds {QR_RESIDUAL_TOL:g}"
        )
    return sol, rel_residual


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def initial_guess(
    q_eps: Signal,
    qx_eps: Signal,
    grid: SpaceTimeGrid,
    qr: QRConfig,
    c_upper: float = DEFAULT_C_UPPER,
):
    """Transport-based initial iterate.

    Solves the over-determined constant-coefficient transport problem for the
    spatial derivative of the initial iterate by quasi-reversibility, rebuilds
    the iterate by cumulative quadrature from the measured trace, and sets its
    t=0 row to the background value 1/2.
    """
    ops = operators_for(grid)
    P, Q = ops.P, ops.Q
    transport = (ops.Dx - 2.0 * ops.Dt).tocsr()
    S0 = _row_selector(P, Q, 0)
    SM = _row_selector(P, Q, P - 1)
    terms = [
        (transport, ops.w2.ravel(), None),
        (S0, ops.wt, qx_eps.samples),
        (SM, ops.wt, np.zeros(Q)),
    ]
    sol, _ = solve_quadratic(terms, ops.h2_ops, ops.w2.ravel(), qr.reg_eta, P * Q)
    Qfield = sol.reshape(P, Q)
    q_vals = q_eps.samples[None, :] + cumulative_trapezoid(Qfield, grid.dx)
    q_vals[:, 0] = 0.5
    floor = q_floor_from_c_upper(c_upper)
    np.maximum(q_vals[:, 0], floor, out=q_vals[:, 0])
    return QField(grid, Field2D(grid, q_vals), floor), Field2D(grid, Qfield)


# ---------------------------------------------------------------------------
# Descent
# ---------------------------------------------------------------------------

def descend(q0: QField, ctx: ObjectiveContext, cfg: DescentConfig):
    """Armijo-backtracked gradient descent with floor clamping on the t=0 row.

    Iterates on nodal arrays: each trial point is evaluated once, and the
    accepted trial's evaluation supplies the next gradient. A non-finite
    trial raises ValueError, and a t=0 row below ``ctx.q_floor`` raises
    FloorViolation. Returns (q, info) where info records per-iteration
    objective values and gradient norms, the accepted step sizes, and the
    termination reason.
    """
    e = evaluate(q0.values.values.copy(), ctx)
    info = {
        "J": [e.J],
        "grad_norm": [],
        "steps": [],
        "converged": False,
        "reason": "max_iters",
    }
    min_step = 1e-14
    # Warm-start the line search from the previously accepted step so the
    # search does not pay the full backtracking cost every iteration.
    step_start = cfg.eta_step
    for _ in range(cfg.max_iters):
        g = gradient(e, ctx)
        gnorm = float(np.linalg.norm(g))
        info["grad_norm"].append(gnorm)
        if gnorm <= cfg.grad_tol:
            info["converged"] = True
            info["reason"] = "grad_tol"
            break
        gg = gnorm * gnorm
        step = step_start
        accepted = False
        while step >= min_step:
            trial = e.v - step * g
            np.maximum(trial[:, 0], ctx.q_floor, out=trial[:, 0])
            if not np.all(np.isfinite(trial)):
                raise ValueError("descent trial contains non-finite values")
            e_trial = evaluate(trial, ctx)
            if e_trial.J <= e.J - cfg.armijo_c1 * step * gg:
                accepted = True
                break
            step *= cfg.backtrack
        if not accepted:
            info["reason"] = "no_decrease"
            break
        step_start = min(step / cfg.backtrack, cfg.eta_step)
        e = e_trial
        info["J"].append(e.J)
        info["steps"].append(step)
    return QField(q0.grid, Field2D(q0.grid, e.v), q0.q_floor), info


# ---------------------------------------------------------------------------
# Correction step
# ---------------------------------------------------------------------------

def correction_step(
    q_tilde: QField,
    q_eps: Signal,
    qx_eps: Signal,
    qr: QRConfig,
    freeze_time_derivative: bool = True,
) -> QField:
    """Solve the frozen-coefficient linear problem for an improved iterate.

    The nonlocal coefficients are frozen at the current iterate's t=0 traces;
    with ``freeze_time_derivative`` the whole third term of the residual is
    frozen as a source (the current iterate's time derivative appears in it),
    otherwise only the two t=0 traces are frozen and the time derivative stays
    an unknown.
    """
    grid = q_tilde.grid
    ops = operators_for(grid)
    P, Q = ops.P, ops.Q
    r = checked_trace(q_tilde.values.values, q_tilde.q_floor)
    s = ops.Gx1d @ r
    a = np.repeat(1.0 / (2.0 * r**2), Q)
    b_coef = s / (2.0 * r**3)
    L = (ops.Dxx - sp.diags(a) @ ops.Dxt).tocsr()
    if freeze_time_derivative:
        dq_t = ops.apply2d(ops.Dt, q_tilde.values.values)
        target = (-(dq_t * b_coef[:, None])).ravel()
    else:
        L = (L + sp.diags(np.repeat(b_coef, Q)) @ ops.Dt).tocsr()
        target = None
    S0 = _row_selector(P, Q, 0)
    SM = _row_selector(P, Q, P - 1)
    terms = [
        (L, ops.w2.ravel(), target),
        (S0, ops.wt, q_eps.samples),
        ((S0 @ ops.Dx).tocsr(), ops.wt, qx_eps.samples),
        ((SM @ ops.Dx).tocsr(), ops.wt, np.zeros(Q)),
    ]
    sol, _ = solve_quadratic(terms, ops.h2_ops, ops.w2.ravel(), qr.reg_eta, P * Q)
    vals = sol.reshape(P, Q)
    np.maximum(vals[:, 0], q_tilde.q_floor, out=vals[:, 0])
    return QField(grid, Field2D(grid, vals), q_tilde.q_floor)


# ---------------------------------------------------------------------------
# Full inversion
# ---------------------------------------------------------------------------

@dataclass
class InversionResult:
    c_comp: MediumProfile
    c_init: MediumProfile
    q: QField
    diagnostics: list = field(default_factory=list)
    corrections: int = 0
    converged: bool = False


def invert(
    d: BoundaryData,
    grid: SpaceTimeGrid,
    params: ConvexParams | None = None,
    qr_cfg: QRConfig | None = None,
    descent_cfg: DescentConfig | None = None,
    diff_reg: float = 1e-6,
    c_upper: float = DEFAULT_C_UPPER,
    freeze_time_derivative: bool = True,
) -> InversionResult:
    """Reconstruct the dielectric profile from boundary data.

    Initialization, then descent; if descent exits on its iteration budget, a
    correction step is applied and descent restarts, until two consecutive
    reconstructions agree within ``stop_linf`` uniformly or the correction
    budget runs out.
    """
    params = params or ConvexParams()
    qr_cfg = qr_cfg or QRConfig()
    descent_cfg = descent_cfg or DescentConfig()
    q_eps, qx_eps = boundary_traces_from_data(d, grid, diff_reg)
    ctx = make_context(grid, q_eps.samples, qx_eps.samples, params, c_upper)
    q0, _ = initial_guess(q_eps, qx_eps, grid, qr_cfg, c_upper)
    c_init = c_from_q(q0)

    diagnostics = []
    q = q0
    converged = False
    corrections = 0
    redescent_cfg = dataclasses.replace(descent_cfg, max_iters=descent_cfg.redescent_iters)
    for k in range(descent_cfg.max_corrections + 1):
        q, info = descend(q, ctx, descent_cfg if k == 0 else redescent_cfg)
        for i, J in enumerate(info["J"][1:]):
            diagnostics.append(
                {
                    "iteration": len(diagnostics),
                    "J": J,
                    "grad_norm": info["grad_norm"][i],
                    "correction_count": k,
                }
            )
        c_tilde = c_from_q(q)
        if info["converged"]:
            converged = True
            break
        if k == descent_cfg.max_corrections:
            break
        q_corr = correction_step(q, q_eps, qx_eps, qr_cfg, freeze_time_derivative)
        corrections += 1
        c_corr = c_from_q(q_corr)
        if float(np.max(np.abs(c_tilde.c - c_corr.c))) < descent_cfg.stop_linf:
            converged = True
            break
        q = q_corr
    return InversionResult(
        c_comp=c_from_q(q),
        c_init=c_init,
        q=q,
        diagnostics=diagnostics,
        corrections=corrections,
        converged=converged,
    )
