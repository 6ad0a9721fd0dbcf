"""End-to-end inversion: initialization, descent, one correction step, descent.

The initial iterate comes from a quasi-reversibility solve of the transport
problem satisfied by q_x when the nonlocal term is dropped. Descent minimizes
the weighted objective with Armijo backtracking, and the correction step
solves the frozen-coefficient linear boundary value problem by the same
quasi-reversibility machinery. ``invert`` runs them as three literal stages.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dsyrk, dtpsv, dtrsm
from scipy.linalg.lapack import dpotrf, dtrttp

from .convexify import ConvexParams, ObjectiveContext, evaluate, gradient, make_context
from .errors import InvalidInput, SingularSystem
from .forward import INCIDENT_LEVEL, MediumProfile
from .grid import (
    Field2D,
    Signal,
    SpaceTimeGrid,
    cumulative_trapezoid,
    operators_for,
    weighted_gram,
)
from .transform import (
    BoundaryData,
    QField,
    boundary_traces_from_data,
    c_from_q,
    check_traces_on_t_nodes,
    frozen_operator,
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
    """The budgets of ``invert``'s two descent legs.

    The two budgets act as the regularizer: the answer is the correction
    output damped by exactly ``redescent_iters`` Armijo steps, after
    ``max_iters`` steps before the correction. At 60x60 the inversion grid
    does not resolve q, so the minimizer of J is not near the truth: in the
    reduced objective phi (J minimized over every q with a given t=0 row),
    the true t=0 row scores 12.6 times the flat background's on ``test1``,
    and 0.75 times on a 480x480 grid (ROADMAP, re-anchor measurements). So
    running either leg longer drifts away from the truth.
    """

    max_iters: int = 300
    redescent_iters: int = 2000

    def __post_init__(self):
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

    ``key`` is the digest of the pattern it was built for (``_pattern_key``);
    the pattern itself is not kept. It reads the upper triangle in
    elimination order, whose entries land in the pivot columns of their
    fronts: in block A11 or A21. Group 2f + b, for front f and block b, holds
    the entries ``data[src[bounds[g]:bounds[g + 1]]]``, and ``dst`` the
    offset of each in its block, flattened in Fortran order. ``structure[f]``
    is front f's structural id: two fronts share it exactly when they have
    the same k and m, the same ``dst`` offsets in both blocks and the same
    ``extend`` maps, so equal entries and equal children's update matrices
    assemble them into equal matrices.
    """

    key: bytes
    src: np.ndarray
    dst: np.ndarray
    bounds: np.ndarray
    structure: tuple[int, ...]


def _analyze(
    tree: _DissectionTree, A: sp.csr_matrix, shape: tuple[int, int], key: bytes
) -> _Analysis:
    n, fronts = tree.order.size, tree.fronts
    # Per-entry arrays set the memory peak of the first solve on a pattern, so
    # they hold int32 positions, rows and offsets wherever every front's
    # blocks can be indexed in int32, and each is dropped once read.
    sizes = np.array([f.rows.size for f in fronts])
    pivots = np.array([f.stop - f.start for f in fronts])
    idx = np.int32 if max(n, int((sizes * pivots).max())) < 2**31 else np.int64
    starts = np.array([f.start for f in fronts], dtype=idx)
    sizes, pivots = sizes.astype(idx), pivots.astype(idx)
    # front f's rows, shifted by f * n, increase through every front in turn,
    # so one sorted search finds each entry's row in its own front
    keys = np.concatenate([i * n + f.rows for i, f in enumerate(fronts)])
    position = tree.position.astype(idx)
    r = np.repeat(position, np.diff(A.indptr))
    c = position[A.indices]
    upper = c >= r
    src = _compact(np.flatnonzero(upper))
    r, c = r[upper], c[upper]
    del upper
    front = np.repeat(np.arange(len(fronts), dtype=idx), pivots)[r]
    entry = front * np.int64(n) + c
    del c
    found = np.searchsorted(keys, entry)
    np.minimum(found, keys.size - 1, out=found)
    if np.any(keys[found] != entry):
        raise ValueError(f"matrix couples grid nodes across a separator of the {shape} grid")
    del entry
    found -= (np.cumsum(sizes) - sizes)[front]
    row = found.astype(idx)
    del found
    col = r - starts[front]
    del r
    k = pivots[front]
    later = row >= k
    dst = np.where(later, row - k + col * (sizes[front] - k), row + col * k)
    del row, col, k
    group = 2 * front + later
    del front, later
    by_group = np.argsort(group, kind="stable")
    bounds = np.searchsorted(group[by_group], np.arange(2 * len(fronts) + 1))
    del group
    dst, src = _compact(dst[by_group]), src[by_group]
    del by_group
    ids: dict[tuple, int] = {}
    structure = tuple(
        ids.setdefault((
            f.stop - f.start,
            f.rows.size,
            dst[bounds[2 * i]:bounds[2 * i + 1]].tobytes(),
            dst[bounds[2 * i + 1]:bounds[2 * i + 2]].tobytes(),
            # slices are unhashable before Python 3.12: key their ends
            tuple(tuple((b, *(end for s in add for end in (s.start, s.stop)))
                        for b, *add in adds) for adds in f.extend),
        ), len(ids))
        for i, f in enumerate(fronts)
    )
    return _Analysis(key, src, dst, bounds, structure)


def _compact(index: np.ndarray) -> np.ndarray:
    return index.astype(np.int32) if index.size == 0 or index.max() < 2**31 else index


# Analyses kept per grid shape, newest first. Each QR stage assembles one
# pattern on every call, so a few cover the initial guess and both
# correction variants.
ANALYSES_PER_SHAPE = 4
_ANALYSIS_CACHE: dict[tuple[int, int], list[_Analysis]] = {}


def _pattern_key(A: sp.csr_matrix) -> bytes:
    """SHA-256 digest of A's CSR pattern: the index dtypes, then indptr and indices.

    The arrays are hashed through memoryviews, so no copy is made.
    """
    digest = hashlib.sha256(f"{A.indptr.dtype.str},{A.indices.dtype.str};".encode())
    for index in (A.indptr, A.indices):
        digest.update(memoryview(np.ascontiguousarray(index)))
    return digest.digest()


def analysis_for(A: sp.csr_matrix, shape: tuple[int, int]) -> _Analysis:
    """The cached analysis of A's pattern on the grid ``shape``, built on a miss.

    The cache is keyed by the digest of the pattern (``_pattern_key``), not
    by a stored copy of it.
    """
    key = _pattern_key(A)
    cached = _ANALYSIS_CACHE.setdefault(shape, [])
    for an in cached:
        if an.key == key:
            return an
    an = _analyze(dissection_tree(*shape), A, shape, key)
    cached.insert(0, an)
    del cached[ANALYSES_PER_SHAPE:]
    return an


def _front_classes(tree: _DissectionTree, an: _Analysis, data: np.ndarray):
    """Sort the fronts, children first, into classes of equal assembled matrices.

    ``data`` holds the matrix's entries in the order of ``an.src``. Two fronts
    fall in one class when their structural ids, their children's classes
    in turn, and the bytes of their entries are equal; the bytes are keys of
    a dict, so they are compared exactly. Returns each front's class, each
    class's first front, and for each class that has an update matrix the
    last class whose first front reads it.
    """
    classes: dict[tuple, int] = {}
    front_class, first, last_reader = [], [], {}
    for i, f in enumerate(tree.fronts):
        children = tuple(front_class[c] for c in f.children)
        values = data[an.bounds[2 * i]:an.bounds[2 * i + 2]].tobytes()
        cls = classes.setdefault((an.structure[i], children, values), len(classes))
        if cls == len(first):
            first.append(i)
            last_reader.update(dict.fromkeys(children, cls))
        front_class.append(cls)
    return front_class, first, last_reader


class GridCholesky:
    """Cholesky factor of a symmetric positive definite matrix on a (P, Q) grid.

    Unknown i * Q + j is grid node (i, j). The grid is bisected recursively
    along its longer side by separators SEPARATOR lines wide (George's nested
    dissection), and every box of at most LEAF_SIZE nodes, and every
    separator, is eliminated as one dense front (Duff and Reid's multifrontal
    method). The work splits in two phases. The symbolic phase
    (``analysis_for``) depends only on the grid and the matrix's CSR pattern
    and is cached: it maps each entry of the upper triangle, in elimination
    order, to its place in its front, gives each front a structural id, and
    raises ValueError if the matrix couples two nodes that no front holds
    together. The numeric phase first sorts the fronts, children first, into
    classes of equal assembled matrices: equal structural id, equal classes
    of the children in turn, and byte-equal entries from the matrix's
    ``data``. It then factors the first front of each class only: it gathers
    the front's entries, adds its children's update matrices in, and factors
    it in place with dpotrf, dtrsm and dsyrk. A class's update matrix is
    freed once the last class that reads it has been assembled. Only the
    lower triangle of each front is used, and each factored front runs the
    arithmetic that factoring every front would run, so sharing and the
    cached analysis change no bit of the factor. ``factors`` holds one pair
    per front, the same pair objects for every front of a class: its pivot
    block L11, packed by dtrttp into its k(k+1)/2 lower-triangle entries,
    column by column, and the dense (m - k) x k block L21; ``solve`` reads
    the packed block with dtpsv and writes to neither. Raises SingularSystem
    if a pivot is not positive.
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
        data = A.data[an.src]
        front_class, first, last_reader = _front_classes(tree, an, data)
        class_factors = []  # (packed L11, L21) per class
        updates = {}
        for cls, i in enumerate(first):
            f = tree.fronts[i]
            m, k = f.rows.size, f.stop - f.start
            blocks = (
                np.zeros((k, k), order="F"),
                np.zeros((m - k, k), order="F"),
                np.zeros((m - k, m - k), order="F"),
            )
            for block, g in zip(blocks, (2 * i, 2 * i + 1)):
                lo, hi = an.bounds[g], an.bounds[g + 1]
                block.reshape(-1, order="F")[an.dst[lo:hi]] = data[lo:hi]
            children = [front_class[c] for c in f.children]
            for child, adds in zip(children, f.extend):
                update = updates[child]
                for b, rows, cols, u_rows, u_cols in adds:
                    dest = blocks[b][rows, cols]
                    np.add(dest, update[u_rows, u_cols], out=dest)
            for child in set(children):
                if last_reader[child] == cls:
                    del updates[child]
            L11, info = dpotrf(blocks[0], lower=1, overwrite_a=1)
            if info > 0:
                node = tree.order[f.start + info - 1]
                raise SingularSystem(
                    f"matrix is singular or indefinite: the pivot of unknown {node} is not positive"
                )
            L21 = dtrsm(1.0, L11, blocks[1], side=1, lower=1, trans_a=1, overwrite_b=1)
            if m > k:
                updates[cls] = dsyrk(-1.0, L21, beta=1.0, c=blocks[2], lower=1, overwrite_c=1)
            class_factors.append((dtrttp(L11, uplo="L")[0], L21))
        self.factors = [class_factors[cls] for cls in front_class]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Forward then back substitution, in place on a permuted float64 copy of real ``b``.

        Raises ValueError unless ``b`` has shape (n,), one entry per unknown.
        """
        fronts, n = self.tree.fronts, self.tree.order.size
        if np.shape(b) != (n,):
            raise ValueError(f"right-hand side of shape {np.shape(b)} does not fit {n} unknowns")
        y = np.asarray(b, dtype=float)[self.tree.order]
        for f, (L11, L21) in zip(fronts, self.factors):
            k = f.stop - f.start
            dtpsv(k, L11, y, offx=f.start, lower=1, overwrite_x=1)
            y[f.rows[k:]] -= L21 @ y[f.start:f.stop]
        for f, (L11, L21) in zip(reversed(fronts), reversed(self.factors)):
            k = f.stop - f.start
            y[f.start:f.stop] -= L21.T @ y[f.rows[k:]]
            dtpsv(k, L11, y, offx=f.start, lower=1, trans=1, overwrite_x=1)
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

    Stacks the terms into one operator L = [L_1; ...; L_m], with weights
    w = [w_1; ...] and targets b = [b_1; ...] (a None target is a zero
    block), and forms the normal matrix L^T diag(w) L and right-hand side
    L^T diag(w) b with one product each. It adds reg_eta times the Gram
    matrix sum_j R_j^T diag(w) R_j from ``grid.weighted_gram``, which both
    QR stages share with the objective (``_qr_solve``), and solves by a
    nested-dissection multifrontal Cholesky factorization (``GridCholesky``)
    over the row-major grid ``shape``, by default (1, n_unknowns). With
    positive weights the normal matrix is symmetric positive semidefinite,
    and positive definite once a term or ``reg_ops`` (the H2 operators
    include the identity) covers every unknown; an unknown that nothing
    covers leaves a zero pivot, which dpotrf reports. Returns (solution,
    relative_normal_residual), the residual ||normal @ solution - rhs|| /
    ||rhs||. Raises InvalidInput if ||rhs|| overflows, which data far off
    the unit source's scale cause; SingularSystem if a pivot is not
    positive, the solution is non-finite or its relative residual exceeds
    ``QR_RESIDUAL_TOL``; and ValueError if the normal matrix couples nodes
    across a separator of ``shape``.
    """
    L = sp.vstack([Lk for Lk, _, _ in terms], format="csr")
    Lw = L.T @ sp.diags(np.concatenate([w for _, w, _ in terms]))
    normal = (Lw @ L).tocsr()
    rhs = Lw @ np.concatenate([np.zeros(Lk.shape[0]) if b is None else b for Lk, _, b in terms])
    del L, Lw  # freed before the factorization, whose transients set the peak memory
    if reg_ops:
        normal = normal + reg_eta * weighted_gram(reg_ops, reg_weight_vec)
    with np.errstate(over="ignore"):
        rhs_norm = np.linalg.norm(rhs)
    if not np.isfinite(rhs_norm):
        raise InvalidInput(
            "the norm of the quasi-reversibility right-hand side overflows: "
            "the data are far off the unit source's scale"
        )
    sol = GridCholesky(normal, shape or (1, n_unknowns)).solve(rhs)
    if not np.all(np.isfinite(sol)):
        raise SingularSystem("quasi-reversibility solve produced non-finite values")
    res = normal @ sol - rhs
    with np.errstate(over="ignore"):  # an overflowing residual norm is inf: refused below
        rel_residual = float(np.linalg.norm(res) / max(rhs_norm, 1e-300))
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
    q_eps: Signal, qx_eps: Signal, grid: SpaceTimeGrid, qr: QRConfig, c_upper: float
):
    """Transport-based initial iterate.

    Solves the over-determined constant-coefficient transport problem for the
    spatial derivative of the initial iterate by quasi-reversibility, rebuilds
    the iterate by cumulative quadrature from the measured trace, and sets its
    t=0 row to the null scatterer's ``forward.INCIDENT_LEVEL``, which lies
    above the floor of every valid ``c_upper``. Raises ValueError, before any
    work, as ``check_traces_on_t_nodes`` and ``q_floor_from_c_upper`` do.
    """
    check_traces_on_t_nodes(grid, q_eps, qx_eps)
    floor = q_floor_from_c_upper(c_upper)
    ops = operators_for(grid)
    P, Q = ops.P, ops.Q
    Qfield = _qr_solve([
        ((ops.Dx - 2.0 * ops.Dt).tocsr(), ops.w2.ravel(), None),
        (sp.eye(Q, P * Q, format="csr"), ops.wt, qx_eps.samples),
        (sp.eye(Q, P * Q, k=(P - 1) * Q, format="csr"), ops.wt, np.zeros(Q)),
    ], ops, qr)
    q_vals = q_eps.samples[None, :] + cumulative_trapezoid(Qfield, grid.dx)
    q_vals[:, 0] = INCIDENT_LEVEL
    return QField(Field2D(grid, q_vals), floor), Field2D(grid, Qfield)


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
# A gradient norm at or below this ends a leg. No fixture meets it: test1's
# legs end on their budgets at norms of 31 and 2.6.
GRAD_TOL = 1e-7


def descend(q0: QField, ctx: ObjectiveContext, max_iters: int):
    """Armijo-backtracked gradient descent with floor clamping on the t=0 row.

    Runs ``max_iters`` steps, or fewer if the gradient norm falls to
    ``GRAD_TOL``. Iterates on nodal arrays: each trial point is evaluated
    once, and the accepted trial's evaluation supplies the next gradient. A
    non-finite trial raises ValueError, and a t=0 row below ``ctx.q_floor``
    raises FloorViolation. Returns (q, info), q with the floor ``ctx.q_floor``,
    and info the leg's record: ``steps`` the accepted step sizes; ``J`` the
    objective at q0 and after each accepted step, one entry more than
    ``steps``; ``grad_norm`` the gradient norm at the start of each iteration
    begun, one entry more than ``steps`` if the leg ended on ``GRAD_TOL`` or
    found no decrease, else as many; ``reason`` the stop reason,
    ``"max_iters"``, ``"grad_tol"`` or ``"no_decrease"``.
    """
    with np.errstate(over="ignore"):  # an overflowing J or norm is inf: no Armijo test passes
        e = evaluate(q0.values.values.copy(), ctx)
        info = {"J": [e.J], "grad_norm": [], "steps": [], "reason": "max_iters"}
        # Warm-start the line search from the previously accepted step so the
        # search does not pay the full backtracking cost every iteration.
        step_start = ETA_STEP
        for _ in range(max_iters):
            g = gradient(e, ctx)
            gnorm = float(np.linalg.norm(g))
            info["grad_norm"].append(gnorm)
            if gnorm <= GRAD_TOL:
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
                threshold = e.J - ARMIJO_C1 * step * gg
                e_trial = evaluate(trial, ctx, threshold)
                if e_trial is not None and e_trial.J <= threshold:
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
    return QField(Field2D(ctx.ops.grid, e.v), ctx.q_floor), info


# ---------------------------------------------------------------------------
# Correction step
# ---------------------------------------------------------------------------

def correction_step(
    q_tilde: QField, q_eps: Signal, qx_eps: Signal, qr: QRConfig, freeze_time_derivative: bool
) -> QField:
    """Solve the frozen-coefficient linear problem for an improved iterate.

    Freezes the q-PDE at the current iterate (``transform.frozen_operator``, with
    ``freeze_time_derivative``). Raises ValueError as ``check_traces_on_t_nodes`` does.
    """
    grid = q_tilde.values.grid
    check_traces_on_t_nodes(grid, q_eps, qx_eps)
    ops = operators_for(grid)
    P, Q = ops.P, ops.Q
    L, target = frozen_operator(q_tilde.values.values, ops, q_tilde.q_floor, freeze_time_derivative)
    vals = _qr_solve([
        (L, ops.w2.ravel(), target),
        (sp.eye(Q, P * Q, format="csr"), ops.wt, q_eps.samples),
        (ops.Dx[:Q], ops.wt, qx_eps.samples),
        (ops.Dx[-Q:], ops.wt, np.zeros(Q)),
    ], ops, qr)
    np.maximum(vals[:, 0], q_tilde.q_floor, out=vals[:, 0])
    return QField(Field2D(grid, vals), q_tilde.q_floor)


# ---------------------------------------------------------------------------
# Full inversion
# ---------------------------------------------------------------------------

@dataclass
class InversionResult:
    q: QField
    legs: list
    corrections: int
    converged: bool

    @property
    def c_comp(self) -> MediumProfile:
        return c_from_q(self.q)


def invert(
    d: BoundaryData,
    grid: SpaceTimeGrid,
    params: ConvexParams,
    qr_cfg: QRConfig,
    descent_cfg: DescentConfig,
    *,
    diff_reg: float,
    c_upper: float,
    freeze_time_derivative: bool,
) -> InversionResult:
    """Reconstruct the dielectric profile from boundary data.

    After the quasi-reversibility initialization, three stages run: leg 1
    (``max_iters`` descent steps), one ``correction_step``, then leg 2
    (``redescent_iters`` steps from the corrected iterate). A leg that meets
    ``GRAD_TOL`` ends the run, and so does a correction that moves c by less
    than ``STOP_LINF`` at every node, which keeps the leg-1 answer; both set
    ``converged``. ``corrections`` is 0 if leg 1 ended the run, else 1, and
    ``legs`` keeps each leg's ``descend`` record, so it holds two records
    only if leg 2 ran.

    Every setting is required: ``config.invert_from_config(d, RunConfig())``
    runs this with the production settings, which ``RunConfig`` alone states.
    """
    q_eps, qx_eps = boundary_traces_from_data(d, grid, diff_reg)
    ctx = make_context(grid, q_eps, qx_eps, params, c_upper)
    q0, _ = initial_guess(q_eps, qx_eps, grid, qr_cfg, c_upper)
    q, leg1 = descend(q0, ctx, descent_cfg.max_iters)
    if leg1["reason"] == "grad_tol":
        return InversionResult(q, [leg1], corrections=0, converged=True)
    q_corr = correction_step(q, q_eps, qx_eps, qr_cfg, freeze_time_derivative)
    if float(np.max(np.abs(c_from_q(q).c - c_from_q(q_corr).c))) < STOP_LINF:
        return InversionResult(q, [leg1], corrections=1, converged=True)
    q, leg2 = descend(q_corr, ctx, descent_cfg.redescent_iters)
    return InversionResult(q, [leg1, leg2], corrections=1, converged=leg2["reason"] == "grad_tol")
