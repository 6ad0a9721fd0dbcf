"""End-to-end inversion: initialization, descent, one correction step, descent.

The initial iterate comes from a quasi-reversibility solve of the transport
problem satisfied by q_x when the nonlocal term is dropped. Descent minimizes
the weighted objective with Armijo backtracking, and the correction step
solves the frozen-coefficient linear boundary value problem by the same
quasi-reversibility machinery. ``invert`` runs them as three literal stages.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dsyrk, dtrsm, dtrsv
from scipy.linalg.lapack import dpotrf

from .convexify import ConvexParams, ObjectiveContext, evaluate, gradient, make_context
from .errors import SingularSystem
from .forward import MediumProfile
from .grid import (
    Field2D,
    Signal,
    SpaceTimeGrid,
    cumulative_trapezoid,
    operators_for,
    weighted_gram,
)
from .transform import (
    DEFAULT_C_UPPER,
    BoundaryData,
    QField,
    boundary_traces_from_data,
    c_from_q,
    nonlocal_coefficients,
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
    """The budgets of ``invert``'s two descent legs and their gradient tolerance.

    The two budgets act as the regularizer: the answer is the correction
    output damped by exactly ``redescent_iters`` Armijo steps, after
    ``max_iters`` steps before the correction. The minimizer of J is not
    near the truth. At the true q, J reads 38, 85 and 111 on ``test1``,
    ``test3`` and ``test4``, against 0.39, 0.16 and 0.28 at the answers
    (ROADMAP, re-anchor measurements), so running either leg longer drifts
    away from the truth. ``grad_tol`` ends a leg early; no fixture meets it.
    """

    max_iters: int = 300
    grad_tol: float = 1e-7
    redescent_iters: int = 2000

    def __post_init__(self):
        if not 0 < self.grad_tol < np.inf:
            raise ValueError("grad_tol must be positive and finite")
        if self.max_iters < 1 or self.redescent_iters < 1:
            raise ValueError("iteration budgets must be positive")


# ---------------------------------------------------------------------------
# Nested-dissection multifrontal Cholesky on the row-major (P, Q) grid
# ---------------------------------------------------------------------------

# Largest box of grid nodes eliminated as one dense front.
LEAF_SIZE = 128
# Separator width in grid lines. The normal matrices couple nodes at most two
# lines apart, except the one-sided end stencils, which couple lines 0 and 3
# (and the last and fourth-last). A box is split only above LEAF_SIZE nodes,
# so its longer side has at least 12 lines and each half keeps at least 5: no
# separator falls between lines 0 and 3, and two lines cut every coupling.
SEPARATOR = 2


@dataclass(frozen=True)
class _Front:
    """One dense front of the elimination.

    It eliminates positions [start, stop) of the elimination order. ``rows``
    holds its positions in increasing order: the k pivots, then the later
    positions that its update matrix reaches. The front is held as three
    Fortran-ordered blocks, A11 (pivot rows and columns), A21 (later rows,
    pivot columns) and A22 (later rows and columns), so that LAPACK and BLAS
    work on each in place. ``extend[c]`` lists the additions (block, its rows,
    its columns, update rows, update columns), each a slice, that add the
    lower triangle of child ``children[c]``'s update matrix into this front.
    """

    start: int
    stop: int
    rows: np.ndarray
    children: tuple[int, ...]
    extend: tuple[tuple[tuple[int, slice, slice, slice, slice], ...], ...]


@dataclass(frozen=True)
class _DissectionTree:
    order: np.ndarray  # order[k] is the node eliminated k-th
    position: np.ndarray  # position[order[k]] == k
    fronts: tuple[_Front, ...]  # every child before its parent


def _extend_adds(dest: np.ndarray, k: int) -> tuple[tuple[int, slice, slice, slice, slice], ...]:
    """The block additions of an update matrix whose row s lands on front row dest[s].

    ``dest`` increases, so it splits into runs of consecutive rows, cut also
    where the front's later rows begin at k. Each pair of runs, the second
    at or before the first, is one rectangle of the lower triangle.
    """
    starts = np.concatenate(([0], np.flatnonzero((np.diff(dest) != 1) | (dest[1:] == k)) + 1))
    lengths = np.diff(np.append(starts, dest.size))
    runs = list(zip(dest[starts].tolist(), starts.tolist(), lengths.tolist()))
    adds = []
    for n_run, (d1, s1, l1) in enumerate(runs):
        for d2, s2, l2 in runs[: n_run + 1]:
            block = 2 if d2 >= k else 1 if d1 >= k else 0
            r0, c0 = d1 - k * (block > 0), d2 - k * (block > 1)
            adds.append((block, slice(r0, r0 + l1), slice(c0, c0 + l2),
                         slice(s1, s1 + l1), slice(s2, s2 + l2)))
    return tuple(adds)


@functools.cache
def dissection_tree(P: int, Q: int) -> _DissectionTree:
    """The nested-dissection elimination of the (P, Q) grid, built once per shape."""

    def nodes(i0, i1, j0, j1):
        return (np.arange(i0, i1)[:, None] * Q + np.arange(j0, j1)).ravel()

    parts = []  # (pivot nodes, boundary nodes, children), children first

    def dissect(i0, i1, j0, j1):
        # the boundary is every node within SEPARATOR lines of the box, all
        # of which lie on the separators of enclosing boxes
        halo = nodes(max(i0 - SEPARATOR, 0), min(i1 + SEPARATOR, P),
                     max(j0 - SEPARATOR, 0), min(j1 + SEPARATOR, Q))
        i, j = np.divmod(halo, Q)
        boundary = halo[(i < i0) | (i >= i1) | (j < j0) | (j >= j1)]
        if (i1 - i0) * (j1 - j0) <= LEAF_SIZE:
            pivots, children = nodes(i0, i1, j0, j1), ()
        elif i1 - i0 >= j1 - j0:
            s = i0 + (i1 - i0 - SEPARATOR) // 2
            children = (dissect(i0, s, j0, j1), dissect(s + SEPARATOR, i1, j0, j1))
            pivots = nodes(s, s + SEPARATOR, j0, j1)
        else:
            s = j0 + (j1 - j0 - SEPARATOR) // 2
            children = (dissect(i0, i1, j0, s), dissect(i0, i1, s + SEPARATOR, j1))
            pivots = nodes(i0, i1, s, s + SEPARATOR)
        parts.append((pivots, boundary, children))
        return len(parts) - 1

    dissect(0, P, 0, Q)
    order = np.concatenate([pivots for pivots, _, _ in parts])
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    fronts = []
    start = 0
    for pivots, boundary, children in parts:
        stop = start + pivots.size
        rows = np.concatenate((np.arange(start, stop), np.sort(position[boundary])))
        extend = tuple(
            _extend_adds(
                np.searchsorted(rows, fronts[c].rows[fronts[c].stop - fronts[c].start:]),
                pivots.size,
            )
            for c in children
        )
        fronts.append(_Front(start, stop, rows, children, extend))
        start = stop
    return _DissectionTree(order, position, tuple(fronts))


@dataclass(frozen=True)
class _Analysis:
    """The symbolic phase of ``GridCholesky`` for one CSR pattern on one grid.

    ``indptr`` and ``indices`` are the pattern it was built for. It reads the
    upper triangle in elimination order, whose entries land in the pivot
    columns of their fronts: in block A11 or A21. Group 2f + b, for front f
    and block b, holds the entries ``data[src[bounds[g]:bounds[g + 1]]]``, and
    ``dst`` the offset of each in its block, flattened in Fortran order.
    """

    indptr: np.ndarray
    indices: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    bounds: np.ndarray


def _analyze(tree: _DissectionTree, A: sp.csr_matrix, shape: tuple[int, int]) -> _Analysis:
    n = tree.order.size
    starts = np.array([f.start for f in tree.fronts])
    pivots = np.array([f.stop - f.start for f in tree.fronts])
    sizes = np.array([f.rows.size for f in tree.fronts])
    # front f's rows, shifted by f * n, increase through every front in turn,
    # so one sorted search finds each entry's row in its own front
    keys = np.concatenate([i * n + f.rows for i, f in enumerate(tree.fronts)])
    r = tree.position[np.repeat(np.arange(n), np.diff(A.indptr))]
    c = tree.position[A.indices]
    src = np.flatnonzero(c >= r)
    r, c = r[src], c[src]
    front = np.searchsorted(starts, r, side="right") - 1
    found = np.minimum(np.searchsorted(keys, front * n + c), keys.size - 1)
    if np.any(keys[found] != front * n + c):
        raise ValueError(f"matrix couples grid nodes across a separator of the {shape} grid")
    row = found - (np.cumsum(sizes) - sizes)[front]
    col = r - starts[front]
    k = pivots[front]
    later = row >= k
    dst = np.where(later, row - k + col * (sizes[front] - k), row + col * k)
    group = 2 * front + later
    by_group = np.argsort(group, kind="stable")
    bounds = np.searchsorted(group[by_group], np.arange(2 * len(tree.fronts) + 1))
    return _Analysis(
        A.indptr.copy(), A.indices.copy(), _compact(src[by_group]), _compact(dst[by_group]),
        bounds,
    )


def _compact(index: np.ndarray) -> np.ndarray:
    return index.astype(np.int32) if index.size == 0 or index.max() < 2**31 else index


# Analyses kept per grid shape, newest first. Each QR stage assembles one
# pattern on every call, so a few cover the initial guess and both
# correction variants.
ANALYSES_PER_SHAPE = 4
_ANALYSIS_CACHE: dict[tuple[int, int], list[_Analysis]] = {}


def analysis_for(A: sp.csr_matrix, shape: tuple[int, int]) -> _Analysis:
    """The cached analysis of A's pattern on the grid ``shape``, built on a miss."""
    cached = _ANALYSIS_CACHE.setdefault(shape, [])
    for an in cached:
        if np.array_equal(an.indptr, A.indptr) and np.array_equal(an.indices, A.indices):
            return an
    an = _analyze(dissection_tree(*shape), A, shape)
    cached.insert(0, an)
    del cached[ANALYSES_PER_SHAPE:]
    return an


class GridCholesky:
    """Cholesky factor of a symmetric positive definite matrix on a (P, Q) grid.

    Unknown i * Q + j is grid node (i, j). The grid is bisected recursively
    along its longer side by separators SEPARATOR lines wide (George's nested
    dissection), and every box of at most LEAF_SIZE nodes, and every
    separator, is eliminated as one dense front (Duff and Reid's multifrontal
    method). The work splits in two phases. The symbolic phase
    (``analysis_for``) depends only on the grid and the matrix's CSR pattern
    and is cached: it maps each entry of the upper triangle, in elimination
    order, to its place in its front, and raises ValueError if the matrix
    couples two nodes that no front holds together. The numeric phase gathers
    each front's entries from the matrix, adds its children's update matrices
    in, and factors it in place with dpotrf, dtrsm and dsyrk. Only the lower
    triangle of each front is used, and the arithmetic does not depend on
    whether the analysis was cached, so equal matrices give equal factors.
    Raises SingularSystem if a pivot is not positive.
    """

    def __init__(self, matrix: sp.spmatrix, shape: tuple[int, int]):
        self.tree = tree = dissection_tree(*shape)
        n = tree.order.size
        if matrix.shape != (n, n):
            raise ValueError(f"matrix of shape {matrix.shape} does not fit a {shape} grid")
        A = sp.csr_matrix(matrix)
        if not A.has_canonical_format:
            A = A.copy()
            A.sum_duplicates()
        an = analysis_for(A, tuple(shape))
        values = A.data[an.src]
        self.factors = []  # (L11, L21) per front
        updates = {}
        for i, f in enumerate(tree.fronts):
            m, k = f.rows.size, f.stop - f.start
            blocks = (
                np.zeros((k, k), order="F"),
                np.zeros((m - k, k), order="F"),
                np.zeros((m - k, m - k), order="F"),
            )
            for block, g in zip(blocks, (2 * i, 2 * i + 1)):
                lo, hi = an.bounds[g], an.bounds[g + 1]
                block.reshape(-1, order="F")[an.dst[lo:hi]] = values[lo:hi]
            for child, adds in zip(f.children, f.extend):
                update = updates.pop(child)
                for b, rows, cols, u_rows, u_cols in adds:
                    dest = blocks[b][rows, cols]
                    np.add(dest, update[u_rows, u_cols], out=dest)
            L11, info = dpotrf(blocks[0], lower=1, overwrite_a=1)
            if info > 0:
                node = tree.order[f.start + info - 1]
                raise SingularSystem(
                    f"matrix is singular or indefinite: the pivot of unknown {node} is not positive"
                )
            L21 = dtrsm(1.0, L11, blocks[1], side=1, lower=1, trans_a=1, overwrite_b=1)
            if m > k:
                updates[i] = dsyrk(-1.0, L21, beta=1.0, c=blocks[2], lower=1, overwrite_c=1)
            self.factors.append((L11, L21))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Forward then back substitution over the fronts."""
        fronts = self.tree.fronts
        y = b[self.tree.order]
        for f, (L11, L21) in zip(fronts, self.factors):
            piv = dtrsv(L11, y[f.start:f.stop], lower=1)
            y[f.start:f.stop] = piv
            y[f.rows[piv.size:]] -= L21 @ piv
        for f, (L11, L21) in zip(reversed(fronts), reversed(self.factors)):
            rhs = y[f.start:f.stop] - L21.T @ y[f.rows[f.stop - f.start:]]
            y[f.start:f.stop] = dtrsv(L11, rhs, lower=1, trans=1)
        return y[self.tree.position]


# ---------------------------------------------------------------------------
# Quadratic least-squares machinery shared by both quasi-reversibility solves
# ---------------------------------------------------------------------------

# Largest relative normal-equation residual accepted from a direct solve. The
# normal matrices are positive definite, so Cholesky is backward stable: on
# the benchmark's five simulated media at seeds 1 and 2 the worst residual is
# 2.1e-12 on the 60x60 grid and 3.5e-11 on the 200x200 grid.
QR_RESIDUAL_TOL = 1e-6


def solve_quadratic(terms, reg_ops, reg_weight_vec, reg_eta, n_unknowns, *, shape=None):
    """Minimize sum_k ||w_k^(1/2) (L_k v - b_k)||^2 + reg_eta * sum_j ||w^(1/2) R_j v||^2.

    Assembles the normal equations and solves them by a nested-dissection
    multifrontal Cholesky factorization (``GridCholesky``) over the
    row-major grid ``shape``, which defaults to (1, n_unknowns); a system of
    at most LEAF_SIZE unknowns is one dense front. The regularization adds
    reg_eta times the Gram matrix sum_j R_j^T diag(w) R_j from
    ``grid.weighted_gram``, built once for each ``reg_ops`` object and
    weight vector: both QR stages pass the grid's H2 operators and area
    weights (``_qr_solve``), so they add the very matrix
    ``DiscreteOperators.H2`` that the objective applies. The factorization's symbolic analysis is cached per
    grid and normal-matrix pattern, so repeated solves on one grid pay only
    the numeric factorization. With positive weights the
    normal matrix is symmetric positive semidefinite, and positive definite
    once a term or ``reg_ops`` (the H2 operators include the identity)
    covers every unknown; an unknown that nothing covers leaves a zero
    pivot, which dpotrf reports. Returns (solution, relative_normal_residual);
    raises SingularSystem if a pivot is not positive, the solution is
    non-finite or its relative residual exceeds ``QR_RESIDUAL_TOL``, and
    ValueError if the normal matrix couples nodes across a separator of
    ``shape``.
    """
    normal = sp.csr_matrix((n_unknowns, n_unknowns))
    rhs = np.zeros(n_unknowns)
    for L, w, b in terms:
        Lw = L.T @ sp.diags(w)
        normal = normal + Lw @ L
        if b is not None:
            rhs = rhs + Lw @ b
    if reg_ops:
        normal = normal + reg_eta * weighted_gram(reg_ops, reg_weight_vec)
    sol = GridCholesky(normal, shape or (1, n_unknowns)).solve(rhs)
    if not np.all(np.isfinite(sol)):
        raise SingularSystem("quasi-reversibility solve produced non-finite values")
    res = normal @ sol - rhs
    rel_residual = float(np.linalg.norm(res) / max(np.linalg.norm(rhs), 1e-300))
    if not rel_residual <= QR_RESIDUAL_TOL:
        raise SingularSystem(
            f"quasi-reversibility normal residual {rel_residual:.3g} exceeds {QR_RESIDUAL_TOL:g}"
        )
    return sol, rel_residual


def _qr_solve(terms, ops, qr: QRConfig) -> np.ndarray:
    """``solve_quadratic`` on the grid of ``ops``, regularized by its H2 Gram, as a (P, Q) array."""
    sol, _ = solve_quadratic(
        terms, ops.h2_ops, ops.w2.ravel(), qr.reg_eta, ops.P * ops.Q, shape=ops.grid.shape
    )
    return sol.reshape(ops.P, ops.Q)


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
    Qfield = _qr_solve([
        ((ops.Dx - 2.0 * ops.Dt).tocsr(), ops.w2.ravel(), None),
        (sp.eye(Q, P * Q, format="csr"), ops.wt, qx_eps.samples),
        (sp.eye(Q, P * Q, k=(P - 1) * Q, format="csr"), ops.wt, np.zeros(Q)),
    ], ops, qr)
    q_vals = q_eps.samples[None, :] + cumulative_trapezoid(Qfield, grid.dx)
    q_vals[:, 0] = 0.5
    floor = q_floor_from_c_upper(c_upper)
    np.maximum(q_vals[:, 0], floor, out=q_vals[:, 0])
    return QField(grid, Field2D(grid, q_vals), floor), Field2D(grid, Qfield)


# ---------------------------------------------------------------------------
# Descent
# ---------------------------------------------------------------------------

# Armijo line search: first trial step, sufficient-decrease constant,
# backtracking factor and smallest trial step.
ETA_STEP = 0.1
ARMIJO_C1 = 1e-4
BACKTRACK = 0.5
MIN_STEP = 1e-14
# A correction that moves c by less than this at every node ends the run. Of
# the fixtures and the null scatterer, only the null scatterer stops here.
STOP_LINF = 1e-3


def descend(q0: QField, ctx: ObjectiveContext, max_iters: int, grad_tol: float):
    """Armijo-backtracked gradient descent with floor clamping on the t=0 row.

    Runs ``max_iters`` steps, or fewer if the gradient norm falls to
    ``grad_tol``. Iterates on nodal arrays: each trial point is evaluated
    once, and the accepted trial's evaluation supplies the next gradient. A
    non-finite trial raises ValueError, and a t=0 row below ``ctx.q_floor``
    raises FloorViolation. Returns (q, info) where info records per-iteration
    objective values and gradient norms, the accepted step sizes, and the
    termination reason.
    """
    e = evaluate(q0.values.values.copy(), ctx)
    info = {"J": [e.J], "grad_norm": [], "steps": [], "reason": "max_iters"}
    # Warm-start the line search from the previously accepted step so the
    # search does not pay the full backtracking cost every iteration.
    step_start = ETA_STEP
    for _ in range(max_iters):
        g = gradient(e, ctx)
        gnorm = float(np.linalg.norm(g))
        info["grad_norm"].append(gnorm)
        if gnorm <= grad_tol:
            info["reason"] = "grad_tol"
            break
        gg = gnorm * gnorm
        step = step_start
        accepted = False
        while step >= MIN_STEP:
            trial = e.v - step * g
            np.maximum(trial[:, 0], ctx.q_floor, out=trial[:, 0])
            if not np.all(np.isfinite(trial)):
                raise ValueError("descent trial contains non-finite values")
            e_trial = evaluate(trial, ctx)
            if e_trial.J <= e.J - ARMIJO_C1 * step * gg:
                accepted = True
                break
            step *= BACKTRACK
        if not accepted:
            info["reason"] = "no_decrease"
            break
        step_start = min(step / BACKTRACK, ETA_STEP)
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
    _, _, a, b_coef = nonlocal_coefficients(q_tilde.values.values, ops, q_tilde.q_floor)
    L = (ops.Dxx - sp.diags(np.repeat(a, Q)) @ ops.Dxt).tocsr()
    if freeze_time_derivative:
        dq_t = ops.apply2d(ops.Dt, q_tilde.values.values)
        target = (-(dq_t * b_coef[:, None])).ravel()
    else:
        L = (L + sp.diags(np.repeat(b_coef, Q)) @ ops.Dt).tocsr()
        target = None
    vals = _qr_solve([
        (L, ops.w2.ravel(), target),
        (sp.eye(Q, P * Q, format="csr"), ops.wt, q_eps.samples),
        (ops.Dx[:Q], ops.wt, qx_eps.samples),
        (ops.Dx[-Q:], ops.wt, np.zeros(Q)),
    ], ops, qr)
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

    After the quasi-reversibility initialization, three stages run: leg 1
    (``max_iters`` descent steps), one ``correction_step``, then leg 2
    (``redescent_iters`` steps from the corrected iterate). A leg that meets
    ``grad_tol`` ends the run, and so does a correction that moves c by less
    than ``STOP_LINF`` at every node, which keeps the leg-1 answer; both set
    ``converged``. ``corrections`` is 0 if leg 1 ended the run, else 1, and
    each diagnostics row is one accepted step, with its leg as
    ``correction_count``.
    """
    params = params or ConvexParams()
    qr_cfg = qr_cfg or QRConfig()
    cfg = descent_cfg or DescentConfig()
    q_eps, qx_eps = boundary_traces_from_data(d, grid, diff_reg)
    ctx = make_context(grid, q_eps.samples, qx_eps.samples, params, c_upper)
    q0, _ = initial_guess(q_eps, qx_eps, grid, qr_cfg, c_upper)
    c_init = c_from_q(q0)
    diagnostics = []

    def leg(q, budget, correction_count):
        q, info = descend(q, ctx, budget, cfg.grad_tol)
        for J, grad_norm in zip(info["J"][1:], info["grad_norm"]):
            diagnostics.append({"iteration": len(diagnostics), "J": J, "grad_norm": grad_norm,
                                "correction_count": correction_count})
        return q, info["reason"] == "grad_tol"

    q, met_tol = leg(q0, cfg.max_iters, 0)
    if met_tol:
        return InversionResult(c_from_q(q), c_init, q, diagnostics, corrections=0, converged=True)
    q_corr = correction_step(q, q_eps, qx_eps, qr_cfg, freeze_time_derivative)
    c_leg1 = c_from_q(q)
    if float(np.max(np.abs(c_leg1.c - c_from_q(q_corr).c))) < STOP_LINF:
        return InversionResult(c_leg1, c_init, q, diagnostics, corrections=1, converged=True)
    q, met_tol = leg(q_corr, cfg.redescent_iters, 1)
    return InversionResult(c_from_q(q), c_init, q, diagnostics, corrections=1, converged=met_tol)
