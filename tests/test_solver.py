"""Initialization, descent, correction, and the assembled inversion."""

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp

from cached_data import cached_boundary_data, null_boundary_data
from convexiwave import solver
from convexiwave.convexify import ConvexParams, evaluate_J, gradient_J, make_context
from convexiwave.errors import SingularSystem
from convexiwave.grid import Field2D, Signal, SpaceTimeGrid, operators_for
from convexiwave.solver import (
    DescentConfig,
    QRConfig,
    correction_step,
    descend,
    initial_guess,
    invert,
)
from convexiwave.transform import (
    QField,
    boundary_traces_from_data,
    nonlocal_coefficients,
    q_floor_from_c_upper,
)

FLOOR = q_floor_from_c_upper(15.0)


def _const_signals(grid, q_val=0.5, qx_val=0.0):
    n = grid.nt + 1
    return (
        Signal(0.0, grid.dt, np.full(n, q_val)),
        Signal(0.0, grid.dt, np.full(n, qx_val)),
    )


# ---------------------------------------------------------------------------
# initial_guess
# ---------------------------------------------------------------------------

def test_initial_guess_background():
    """Constant 1/2 data with zero derivative returns the background iterate."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 30, 30)
    q_eps, qx_eps = _const_signals(g)
    q0, Q0 = initial_guess(q_eps, qx_eps, g, QRConfig())
    assert np.max(np.abs(Q0.values)) < 1e-6
    assert np.allclose(q0.values.values, 0.5, atol=1e-6)
    assert np.allclose(q0.values.values[:, 0], 0.5)


def test_initial_guess_c_init_is_one_for_background():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 30, 30)
    q_eps, qx_eps = _const_signals(g)
    q0, _ = initial_guess(q_eps, qx_eps, g, QRConfig())
    c_init = 1.0 / (16.0 * q0.values.values[:, 0] ** 4)
    assert np.allclose(c_init, 1.0)


def test_initial_guess_manufactured_transport():
    """Data generated from Q = phi(2x + t) is recovered to 1% L2.

    phi(2x + t) annihilates the transport operator Q_x - 2 Q_t identically.
    """
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 200, 200)
    x = g.x_nodes()[:, None]
    t = g.t_nodes()[None, :]

    def phi(s):
        # effectively vanishes at the far boundary (2x + t >= 6 there), which
        # the quasi-reversibility misfit requires
        return np.exp(-((s - 2.5) ** 2) / 0.8)

    Q_true = phi(2 * x + t)
    # boundary data consistent with q built from Q_true
    import scipy.integrate

    q_true = 0.5 + scipy.integrate.cumulative_trapezoid(Q_true, dx=g.dx, axis=0, initial=0.0)
    q_eps = Signal(0.0, g.dt, q_true[0])
    qx_eps = Signal(0.0, g.dt, Q_true[0])
    _, Q0 = initial_guess(q_eps, qx_eps, g, QRConfig(reg_eta=1e-11))
    rel = np.linalg.norm(Q0.values - Q_true) / np.linalg.norm(Q_true)
    assert rel < 0.01


# ---------------------------------------------------------------------------
# descend
# ---------------------------------------------------------------------------

def test_descend_stationary_start():
    """Starting at the flat-data minimizer terminates almost immediately."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 15, 15)
    ctx = make_context(g, np.full(g.nt + 1, 0.5), np.zeros(g.nt + 1), ConvexParams())
    q0 = QField(g, Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    q, info = descend(q0, ctx, 10, 1e-6)
    assert info["reason"] in ("grad_tol", "no_decrease")
    assert len(info["steps"]) <= 2


def test_descend_monotone_J():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 20, 20)
    ctx = make_context(g, np.full(g.nt + 1, 0.45), np.zeros(g.nt + 1), ConvexParams())
    q0 = QField(g, Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    q, info = descend(q0, ctx, 50, 1e-7)
    J = info["J"]
    assert all(J[i + 1] <= J[i] + 1e-15 for i in range(len(J) - 1))


def test_descend_matches_reference_minimizer():
    """On a small problem the descent minimum matches an independent optimizer.

    scipy's L-BFGS on the same objective/gradient provides the oracle.
    """
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 8, 8)
    ctx = make_context(g, np.full(g.nt + 1, 0.48), np.zeros(g.nt + 1), ConvexParams())
    q0 = QField(g, Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    q, info = descend(q0, ctx, 5000, 1e-10)

    def fun(v):
        qq = QField(g, Field2D(g, v.reshape(g.shape)), FLOOR)
        return evaluate_J(qq, ctx), gradient_J(qq, ctx).values.ravel()

    # bound the t=0 row at the floor, matching the clamp in descend
    lb = np.full(g.shape, -np.inf)
    lb[:, 0] = FLOOR
    bounds = scipy.optimize.Bounds(lb.ravel(), np.full(g.shape, np.inf).ravel())
    ref = scipy.optimize.minimize(
        fun, np.full(g.shape, 0.5).ravel(), jac=True, method="L-BFGS-B",
        bounds=bounds, options={"maxiter": 5000, "ftol": 1e-18, "gtol": 1e-12},
    )
    J_ref = float(ref.fun)
    J0 = evaluate_J(q0, ctx)
    J_got = evaluate_J(q, ctx)
    # the reference minimum is a true lower bound ...
    assert J_got >= J_ref - 1e-9
    # ... and plain gradient descent closes at least 90% of the gap to it
    assert J_got - J_ref <= 0.1 * (J0 - J_ref)


def test_descend_floor_clamp_maintained():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 15, 15)
    ctx = make_context(g, np.full(g.nt + 1, FLOOR), np.zeros(g.nt + 1), ConvexParams())
    vals = np.full(g.shape, 0.5)
    vals[:, 0] = FLOOR
    q0 = QField(g, Field2D(g, vals), FLOOR)
    q, _ = descend(q0, ctx, 100, 1e-7)
    assert np.all(q.values.values[:, 0] >= FLOOR - 1e-12)


def _reference_descend(q0, ctx, max_iters, grad_tol):
    """Armijo descent written with evaluate_J/gradient_J and a QField per
    trial, with the solver's line-search constants; returns (q, info, number
    of trials the floor clamp changed)."""
    q = q0
    J = evaluate_J(q, ctx)
    info = {"J": [J], "grad_norm": [], "steps": []}
    clamped = 0
    step_start = solver.ETA_STEP
    for _ in range(max_iters):
        g = gradient_J(q, ctx)
        gnorm = float(np.linalg.norm(g.values))
        info["grad_norm"].append(gnorm)
        if gnorm <= grad_tol:
            break
        gg = gnorm * gnorm
        step = step_start
        accepted = False
        while step >= solver.MIN_STEP:
            trial = q.values.values - step * g.values
            clamped += bool(np.any(trial[:, 0] < ctx.q_floor))
            np.maximum(trial[:, 0], ctx.q_floor, out=trial[:, 0])
            q_trial = QField(q.grid, Field2D(q.grid, trial), q.q_floor)
            J_trial = evaluate_J(q_trial, ctx)
            if J_trial <= J - solver.ARMIJO_C1 * step * gg:
                accepted = True
                break
            step *= solver.BACKTRACK
        if not accepted:
            break
        step_start = min(step / solver.BACKTRACK, solver.ETA_STEP)
        q, J = q_trial, J_trial
        info["J"].append(J)
        info["steps"].append(step)
    return q, info, clamped


@pytest.mark.parametrize("clamp", [False, True], ids=["free", "clamped"])
def test_descend_is_bit_identical_to_reference_loop(clamp):
    """Reusing the accepted trial's evaluation for the next gradient changes
    no bit of the iterate or of the recorded history."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 20, 20)
    q_data = FLOOR if clamp else 0.45
    ctx = make_context(g, np.full(g.nt + 1, q_data), np.full(g.nt + 1, 0.05), ConvexParams())
    vals = np.full(g.shape, 0.5)
    if clamp:
        vals[:, 0] = FLOOR
    q0 = QField(g, Field2D(g, vals), FLOOR)
    q_ref, info_ref, clamped = _reference_descend(q0, ctx, 200, 1e-7)
    q, info = descend(q0, ctx, 200, 1e-7)
    assert (clamped > 0) == clamp
    assert len(info["steps"]) == 200
    assert np.array_equal(q.values.values, q_ref.values.values)
    for key in ("J", "steps", "grad_norm"):
        assert info[key] == info_ref[key], key


# ---------------------------------------------------------------------------
# correction_step
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("freeze_time_derivative", [True, False])
def test_correction_constant_fixed_point(freeze_time_derivative):
    """A consistent constant iterate reproduces itself, with the time
    derivative frozen as a source or kept as an unknown."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 25, 25)
    q_eps, qx_eps = _const_signals(g)
    q = QField(g, Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    q1 = correction_step(q, q_eps, qx_eps, QRConfig(), freeze_time_derivative)
    assert np.max(np.abs(q1.values.values - 0.5)) < 1e-6


def test_correction_manufactured_frozen_solution():
    """phi(2x+t) data with a constant frozen row solves the frozen PDE.

    With q(x,0) = 1/2 the frozen operator is q_xx - 2 q_xt and phi(2x+t)
    annihilates it; the correction must return the manufactured field.
    """
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 60, 60)
    x = g.x_nodes()[:, None]
    t = g.t_nodes()[None, :]

    def phi(s):
        return 0.5 + 0.02 * np.sin(0.9 * s) * np.exp(-0.2 * s)

    def dphi(s):
        return 0.02 * np.exp(-0.2 * s) * (0.9 * np.cos(0.9 * s) - 0.2 * np.sin(0.9 * s))

    q_true = phi(2 * x + t)
    q_eps = Signal(0.0, g.dt, q_true[0])
    qx_eps = Signal(0.0, g.dt, 2.0 * dphi(t.ravel()))
    frozen = QField(g, Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    # the frozen time-derivative source is zero for the constant iterate
    q1 = correction_step(frozen, q_eps, qx_eps, QRConfig())
    # compare away from x = M where phi does not satisfy the one-sided
    # zero-derivative penalty
    interior = slice(0, 50)
    rel = np.linalg.norm(q1.values.values[interior] - q_true[interior]) / np.linalg.norm(
        q_true[interior]
    )
    assert rel < 0.05


def test_correction_output_respects_floor():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 20, 20)
    q_eps, qx_eps = _const_signals(g, q_val=0.3)
    q = QField(g, Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    q1 = correction_step(q, q_eps, qx_eps, QRConfig())
    assert np.all(q1.values.values[:, 0] >= FLOOR - 1e-12)


def test_solve_quadratic_rejects_large_normal_residual(monkeypatch):
    """A direct solve whose normal-equation residual exceeds the tolerance
    is refused rather than returned."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 10, 10)
    q_eps, qx_eps = _const_signals(g, qx_val=0.1)
    exact = solver.GridCholesky.solve

    def perturbed(self, b):
        return exact(self, b) * (1.0 + 1e-3)

    monkeypatch.setattr(solver.GridCholesky, "solve", perturbed)
    with pytest.raises(SingularSystem, match="residual"):
        initial_guess(q_eps, qx_eps, g, QRConfig())


def test_solve_quadratic_rejects_an_unknown_no_term_touches():
    """Without reg_ops an untouched unknown leaves an exactly zero pivot,
    which the diagonal-pivot factorization reports instead of solving."""
    L = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0]]))
    with pytest.raises(SingularSystem, match="singular"):
        solver.solve_quadratic([(L, np.ones(2), np.ones(2))], (), np.ones(3), 1e-11, 3)


def _grid_system(extra_term):
    """A 20x20-node grid system: the identity plus ``extra_term``."""
    n = 400
    return [(sp.identity(n, format="csr"), np.ones(n), np.ones(n)), extra_term], n


def test_solve_quadratic_rejects_a_coupling_across_a_separator():
    """A term linking opposite corners of the grid couples two nodes that no
    front holds together; the factorization refuses it instead of dropping it."""
    terms, n = _grid_system(
        (sp.csr_matrix(([1.0, 1.0], ([0, 0], [0, 399])), shape=(1, 400)), np.ones(1), None)
    )
    with pytest.raises(ValueError, match="separator"):
        solver.solve_quadratic(terms, (), np.ones(n), 1e-11, n, shape=(20, 20))


def test_solve_quadratic_rejects_an_indefinite_normal_matrix():
    """A negative weight on one node makes the normal matrix indefinite;
    its pivot is negative and dpotrf reports it."""
    w = np.ones(400)
    w[210] = -2.0
    terms, n = _grid_system((sp.identity(400, format="csr"), w, None))
    with pytest.raises(SingularSystem, match="singular"):
        solver.solve_quadratic(terms, (), np.ones(n), 1e-11, n, shape=(20, 20))


def test_quasi_reversibility_solves_match_dense_solve(monkeypatch):
    """Every QR system of an initialization and both correction variants
    agrees with a dense solve of the same normal equations, on a 10x10 grid
    (one dense front) and a 23x31 grid (fronts split in both directions)."""
    systems = []
    exact = solver.solve_quadratic

    def recorded(*args, **kwargs):
        out = exact(*args, **kwargs)
        systems.append((args, kwargs, out[0].copy()))
        return out

    monkeypatch.setattr(solver, "solve_quadratic", recorded)
    for nx, nt in [(10, 10), (23, 31)]:
        g = SpaceTimeGrid(0.0, 3.0, 6.0, nx, nt)
        t = g.t_nodes()
        q_eps = Signal(0.0, g.dt, 0.5 + 0.02 * np.sin(t))
        qx_eps = Signal(0.0, g.dt, 0.1 * np.cos(t))
        q0, _ = initial_guess(q_eps, qx_eps, g, QRConfig())
        for freeze in (True, False):
            correction_step(q0, q_eps, qx_eps, QRConfig(), freeze)
    assert [kwargs for _, kwargs, _ in systems] == [{"shape": (11, 11)}] * 3 + [
        {"shape": (24, 32)}
    ] * 3
    for (terms, reg_ops, reg_w, reg_eta, n), _, sol in systems:
        A = np.zeros((n, n))
        b = np.zeros(n)
        for L, w, target in terms:
            L = L.toarray()
            A += L.T @ (w[:, None] * L)
            if target is not None:
                b += L.T @ (w * target)
        for R in reg_ops:
            R = R.toarray()
            A += reg_eta * R.T @ (reg_w[:, None] * R)
        ref = np.linalg.solve(A, b)
        assert np.linalg.norm(sol - ref) <= 1e-10 * np.linalg.norm(ref)


def _reference_row_selector(P, Q, row):
    """The (Q, P*Q) matrix that picks grid row ``row``, built entry by entry."""
    cols = row * Q + np.arange(Q)
    return sp.csr_matrix((np.ones(Q), (np.arange(Q), cols)), shape=(Q, P * Q))


def test_quasi_reversibility_stages_match_selector_built_systems(monkeypatch):
    """The initialization and both correction variants assemble, to the bit,
    the normal matrix and right-hand side of their terms written with
    explicit row selectors, S0 and SM, and the products S0 Dx and SM Dx. The
    23x31 grid is not square, so a row taken along the wrong axis cannot pass."""
    assembled = []

    class Recorded(solver.GridCholesky):
        def __init__(self, matrix, shape):
            super().__init__(matrix, shape)
            self.matrix = matrix

        def solve(self, b):
            assembled.append((self.matrix.toarray(), b.copy()))
            return super().solve(b)

    monkeypatch.setattr(solver, "GridCholesky", Recorded)
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 23, 31)
    ops = operators_for(g)
    P, Q = ops.P, ops.Q
    w2, wt = ops.w2.ravel(), ops.wt
    t = g.t_nodes()
    q_eps = Signal(0.0, g.dt, 0.5 + 0.02 * np.sin(t))
    qx_eps = Signal(0.0, g.dt, 0.1 * np.cos(t))
    q0, _ = initial_guess(q_eps, qx_eps, g, QRConfig())
    for freeze in (True, False):
        correction_step(q0, q_eps, qx_eps, QRConfig(), freeze)
    assert len(assembled) == 3

    S0 = _reference_row_selector(P, Q, 0)
    SM = _reference_row_selector(P, Q, P - 1)
    v = q0.values.values
    _, _, a, b_coef = nonlocal_coefficients(v, ops, q0.q_floor)
    L = (ops.Dxx - sp.diags(np.repeat(a, Q)) @ ops.Dxt).tocsr()
    ends = [
        (S0, wt, q_eps.samples),
        ((S0 @ ops.Dx).tocsr(), wt, qx_eps.samples),
        ((SM @ ops.Dx).tocsr(), wt, np.zeros(Q)),
    ]
    references = [
        [((ops.Dx - 2.0 * ops.Dt).tocsr(), w2, None), (S0, wt, qx_eps.samples),
         (SM, wt, np.zeros(Q))],
        [(L, w2, (-(ops.apply2d(ops.Dt, v) * b_coef[:, None])).ravel())] + ends,
        [((L + sp.diags(np.repeat(b_coef, Q)) @ ops.Dt).tocsr(), w2, None)] + ends,
    ]
    for terms in references:
        solver.solve_quadratic(terms, ops.h2_ops, w2, QRConfig().reg_eta, P * Q, shape=g.shape)
    for (A, b), (A_ref, b_ref) in zip(assembled[:3], assembled[3:]):
        assert np.array_equal(A, A_ref)
        assert np.array_equal(b, b_ref)


def test_dissection_tree_of_the_23x31_grid_splits_both_directions():
    """Every node is eliminated once, leaves hold at most LEAF_SIZE nodes,
    and separators run along both grid directions."""
    P, Q = 24, 32
    tree = solver.dissection_tree(P, Q)
    assert np.array_equal(np.sort(tree.order), np.arange(P * Q))
    directions = set()
    for f in tree.fronts:
        i = tree.order[f.start:f.stop] // Q
        if f.children:
            directions.add("x" if np.unique(i).size == solver.SEPARATOR else "t")
        else:
            assert f.stop - f.start <= solver.LEAF_SIZE
    assert directions == {"x", "t"}


# ---------------------------------------------------------------------------
# GridCholesky's cached analysis
# ---------------------------------------------------------------------------

CACHE_SHAPE = (20, 23)  # 460 unknowns: several leaves and separators


def _neighbour_pairs(P, Q):
    """Each node with its right and lower neighbour: a 5-point pattern."""
    node = np.arange(P * Q).reshape(P, Q)
    return list(zip(node[:, :-1].ravel(), node[:, 1:].ravel())) + list(
        zip(node[:-1].ravel(), node[1:].ravel())
    )


def _grid_matrix(pairs, seed, shape=CACHE_SHAPE):
    """A symmetric, strictly diagonally dominant matrix coupling ``pairs``."""
    n = shape[0] * shape[1]
    i, j = np.array(pairs).T
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, i.size)
    off = sp.csr_matrix((values, (i, j)), shape=(n, n))
    off = off + off.T
    return (off + sp.diags(1.0 + abs(off).sum(axis=1).A1)).tocsr()


def _assert_matches_dense(A, shape=CACHE_SHAPE):
    b = np.random.default_rng(7).normal(size=A.shape[0])
    x = solver.GridCholesky(A, shape).solve(b.copy())
    ref = np.linalg.solve(A.toarray(), b)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    return x


@pytest.fixture
def empty_analysis_cache(monkeypatch):
    cache = {}
    monkeypatch.setattr(solver, "_ANALYSIS_CACHE", cache)
    return cache


def test_analysis_is_reused_for_new_values_on_one_pattern(empty_analysis_cache):
    pairs = _neighbour_pairs(*CACHE_SHAPE)
    A1, A2 = _grid_matrix(pairs, 1), _grid_matrix(pairs, 2)
    assert np.array_equal(A1.indices, A2.indices) and not np.array_equal(A1.data, A2.data)
    _assert_matches_dense(A1)
    (analysis,) = empty_analysis_cache[CACHE_SHAPE]
    _assert_matches_dense(A2)
    assert empty_analysis_cache[CACHE_SHAPE] == [analysis]


def test_analysis_misses_a_new_pattern_with_the_same_nnz(empty_analysis_cache):
    """Moving one coupling from a neighbour to a diagonal neighbour keeps the
    shape and nnz; the cached analysis must not be applied to it."""
    P, Q = CACHE_SHAPE
    pairs = _neighbour_pairs(P, Q)
    moved = pairs[:-1] + [(5 * Q + 5, 6 * Q + 6)]
    A1, A2 = _grid_matrix(pairs, 1), _grid_matrix(moved, 1)
    assert A1.nnz == A2.nnz and not np.array_equal(A1.indices, A2.indices)
    _assert_matches_dense(A1)
    _assert_matches_dense(A2)
    assert len(empty_analysis_cache[CACHE_SHAPE]) == 2


def test_separator_check_runs_after_a_valid_pattern_was_cached(empty_analysis_cache):
    P, Q = CACHE_SHAPE
    pairs = _neighbour_pairs(P, Q)
    _assert_matches_dense(_grid_matrix(pairs, 1))
    corner_to_corner = _grid_matrix(pairs + [(0, P * Q - 1)], 1)
    with pytest.raises(ValueError, match="separator"):
        solver.GridCholesky(corner_to_corner, CACHE_SHAPE)


def test_cold_and_warm_factorizations_are_identical(empty_analysis_cache):
    A = _grid_matrix(_neighbour_pairs(*CACHE_SHAPE), 3)
    b = np.random.default_rng(0).normal(size=A.shape[0])
    cold = solver.GridCholesky(A, CACHE_SHAPE)
    assert len(empty_analysis_cache[CACHE_SHAPE]) == 1
    warm = solver.GridCholesky(A, CACHE_SHAPE)
    for (c11, c21), (w11, w21) in zip(cold.factors, warm.factors):
        assert np.array_equal(c11, w11) and np.array_equal(c21, w21)
    assert np.array_equal(cold.solve(b.copy()), warm.solve(b.copy()))


def test_duplicate_entries_are_summed(empty_analysis_cache):
    """A CSR matrix that stores each entry twice, as two halves, factors as A."""
    A = _grid_matrix(_neighbour_pairs(*CACHE_SHAPE), 4)
    rows = [slice(A.indptr[i], A.indptr[i + 1]) for i in range(A.shape[0])]
    split = sp.csr_matrix(
        (np.concatenate([np.tile(A.data[r] / 2, 2) for r in rows]),
         np.concatenate([np.tile(A.indices[r], 2) for r in rows]),
         2 * A.indptr),
        shape=A.shape,
    )
    assert not split.has_canonical_format
    assert np.array_equal(_assert_matches_dense(split), _assert_matches_dense(A))


def test_analysis_cache_stays_bounded(empty_analysis_cache):
    P, Q = CACHE_SHAPE
    pairs = _neighbour_pairs(P, Q)
    for k in range(3 * solver.ANALYSES_PER_SHAPE):
        extra = (k * Q + 2, (k + 1) * Q + 3)  # one diagonal coupling per pattern
        _assert_matches_dense(_grid_matrix(pairs + [extra], k))
        assert len(empty_analysis_cache[CACHE_SHAPE]) == min(k + 1, solver.ANALYSES_PER_SHAPE)


# ---------------------------------------------------------------------------
# The memoized regularization Gram
# ---------------------------------------------------------------------------

def test_regularization_gram_follows_the_weights():
    """One reg_ops object with two weight vectors: each solve matches the
    normal equations with the regularization rebuilt from those weights."""
    g = SpaceTimeGrid(0.0, 1.0, 1.0, 9, 11)
    ops = operators_for(g)
    n = ops.P * ops.Q
    rng = np.random.default_rng(0)
    terms = [(ops.Dx, rng.uniform(0.5, 2.0, n), rng.normal(size=n))]
    for w in (ops.w2.ravel(), rng.uniform(0.1, 1.0, n)):
        sol, _ = solver.solve_quadratic(terms, ops.h2_ops, w, 1e-2, n, shape=g.shape)
        Dx = ops.Dx.toarray()
        A = Dx.T @ (terms[0][1][:, None] * Dx)
        for R in ops.h2_ops:
            R = R.toarray()
            A += 1e-2 * R.T @ (w[:, None] * R)
        ref = np.linalg.solve(A, Dx.T @ (terms[0][1] * terms[0][2]))
        assert np.linalg.norm(sol - ref) <= 1e-10 * np.linalg.norm(ref)


def test_qr_solves_add_the_objectives_h2_gram(monkeypatch):
    """initial_guess adds operators_for(g).H2 itself, and that matrix is the
    sum of R^T diag(w2) R over the H2 operators."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 13, 17)  # a grid no other test uses
    added = []
    exact = solver.weighted_gram

    def recorded(reg_ops, weights):
        added.append(exact(reg_ops, weights))
        return added[-1]

    monkeypatch.setattr(solver, "weighted_gram", recorded)
    q_eps, qx_eps = _const_signals(g, qx_val=0.1)
    initial_guess(q_eps, qx_eps, g, QRConfig())
    ops = operators_for(g)
    assert len(added) == 1 and added[0] is ops.H2
    explicit = sum(R.T.toarray() @ (ops.w2.ravel()[:, None] * R.toarray()) for R in ops.h2_ops)
    assert np.allclose(ops.H2.toarray(), explicit, rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# invert
# ---------------------------------------------------------------------------

def test_invert_null_scatterer(inversion_grid):
    d = null_boundary_data()
    res = invert(d, inversion_grid)
    assert np.max(np.abs(res.c_comp.c - 1.0)) < 0.02
    assert np.allclose(res.c_init.c, 1.0, atol=1e-6)


def test_invert_stops_when_the_correction_moves_c_little(inversion_grid):
    """On the null scatterer the correction moves c by less than STOP_LINF,
    so the run ends with the leg-1 answer and leg 2 never runs."""
    res = invert(null_boundary_data(), inversion_grid)
    assert res.corrections == 1
    assert res.converged is True
    assert len(res.diagnostics) == DescentConfig().max_iters
    assert all(row["correction_count"] == 0 for row in res.diagnostics)


def test_invert_deterministic(inversion_grid):
    d = cached_boundary_data("test3")
    r1 = invert(d, inversion_grid)
    r2 = invert(d, inversion_grid)
    assert np.array_equal(r1.c_comp.c, r2.c_comp.c)


def test_invert_diagnostics_monotone_within_legs(inversion_grid):
    d = cached_boundary_data("test3")
    res = invert(d, inversion_grid)
    by_leg = {}
    for row in res.diagnostics:
        by_leg.setdefault(row["correction_count"], []).append(row["J"])
    for leg, J in by_leg.items():
        assert all(J[i + 1] <= J[i] + 1e-15 for i in range(len(J) - 1)), leg


def test_invert_final_iterate_is_descent_output(inversion_grid):
    """The reconstruction must come from the last descent leg, not a raw
    correction solve: its objective value equals the last diagnostic row."""
    d = cached_boundary_data("test3")
    res = invert(d, inversion_grid)
    q_eps, qx_eps = boundary_traces_from_data(d, inversion_grid, 1e-6)
    ctx = make_context(
        inversion_grid, q_eps.samples, qx_eps.samples, ConvexParams(), 15.0
    )
    J_final = evaluate_J(res.q, ctx)
    assert J_final == pytest.approx(res.diagnostics[-1]["J"], rel=1e-12)
