"""Initialization, descent, correction, and the assembled inversion."""

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
from scipy.linalg.blas import dsyrk, dtrsm
from scipy.linalg.lapack import dpotrf, dtrttp

from cached_data import cached_boundary_data, null_boundary_data
from convexiwave import solver
from convexiwave.config import InversionConfig, RunConfig, invert_from_config
from convexiwave.convexify import ConvexParams, evaluate_J, gradient_J, make_context
from convexiwave.errors import SingularSystem
from convexiwave.grid import (
    Field2D,
    Signal,
    SpaceTimeGrid,
    d2_matrix,
    operators_for,
    weighted_gram,
)
from convexiwave.solver import (
    QRConfig,
    correction_step,
    descend,
    initial_guess,
)
from convexiwave.transform import (
    DEFAULT_C_UPPER,
    QField,
    boundary_traces_from_data,
    c_from_q,
    nonlocal_coefficients,
    q_floor_from_c_upper,
)

FLOOR = q_floor_from_c_upper(DEFAULT_C_UPPER)


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
    q0, Q0 = initial_guess(q_eps, qx_eps, g, QRConfig(), DEFAULT_C_UPPER)
    assert np.max(np.abs(Q0.values)) < 1e-6
    assert np.allclose(q0.values.values, 0.5, atol=1e-6)
    assert np.allclose(q0.values.values[:, 0], 0.5)


def test_initial_guess_c_init_is_one_for_background():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 30, 30)
    q_eps, qx_eps = _const_signals(g)
    q0, _ = initial_guess(q_eps, qx_eps, g, QRConfig(), DEFAULT_C_UPPER)
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
    _, Q0 = initial_guess(q_eps, qx_eps, g, QRConfig(reg_eta=1e-11), DEFAULT_C_UPPER)
    rel = np.linalg.norm(Q0.values - Q_true) / np.linalg.norm(Q_true)
    assert rel < 0.01


# ---------------------------------------------------------------------------
# descend
# ---------------------------------------------------------------------------

def test_descend_stationary_start():
    """Starting at the flat-data minimizer terminates almost immediately."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 15, 15)
    ctx = make_context(g, *_const_signals(g), ConvexParams(), DEFAULT_C_UPPER)
    q0 = QField(Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    q, info = descend(q0, ctx, 10)
    assert info["reason"] in ("grad_tol", "no_decrease")
    assert len(info["steps"]) <= 2


def test_descend_monotone_J():
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 20, 20)
    ctx = make_context(g, *_const_signals(g, q_val=0.45), ConvexParams(), DEFAULT_C_UPPER)
    q0 = QField(Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    q, info = descend(q0, ctx, 50)
    J = info["J"]
    assert all(J[i + 1] <= J[i] + 1e-15 for i in range(len(J) - 1))


def test_descend_matches_reference_minimizer():
    """On a small problem the descent minimum matches an independent optimizer.

    scipy's L-BFGS on the same objective/gradient provides the oracle.
    """
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 8, 8)
    ctx = make_context(g, *_const_signals(g, q_val=0.48), ConvexParams(), DEFAULT_C_UPPER)
    q0 = QField(Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    q, info = descend(q0, ctx, 5000)

    def fun(v):
        qq = QField(Field2D(g, v.reshape(g.shape)), FLOOR)
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
    ctx = make_context(g, *_const_signals(g, q_val=FLOOR), ConvexParams(), DEFAULT_C_UPPER)
    vals = np.full(g.shape, 0.5)
    vals[:, 0] = FLOOR
    q0 = QField(Field2D(g, vals), FLOOR)
    q, _ = descend(q0, ctx, 100)
    assert np.all(q.values.values[:, 0] >= FLOOR - 1e-12)


def _reference_descend(q0, ctx, max_iters):
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
        if gnorm <= solver.GRAD_TOL:
            break
        gg = gnorm * gnorm
        step = step_start
        accepted = False
        while step >= solver.MIN_STEP:
            trial = q.values.values - step * g.values
            clamped += bool(np.any(trial[:, 0] < ctx.q_floor))
            np.maximum(trial[:, 0], ctx.q_floor, out=trial[:, 0])
            q_trial = QField(Field2D(q.values.grid, trial), q.q_floor)
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
    ctx = make_context(
        g, *_const_signals(g, q_val=q_data, qx_val=0.05), ConvexParams(), DEFAULT_C_UPPER
    )
    vals = np.full(g.shape, 0.5)
    if clamp:
        vals[:, 0] = FLOOR
    q0 = QField(Field2D(g, vals), FLOOR)
    q_ref, info_ref, clamped = _reference_descend(q0, ctx, 200)
    q, info = descend(q0, ctx, 200)
    assert (clamped > 0) == clamp
    assert len(info["steps"]) == 200
    assert np.array_equal(q.values.values, q_ref.values.values)
    for key in ("J", "steps", "grad_norm"):
        assert info[key] == info_ref[key], key


# ---------------------------------------------------------------------------
# correction_step
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "t0, dt_factor", [(2.0, 1.0), (0.0, 0.5)], ids=["late_start", "other_step"]
)
@pytest.mark.parametrize("stage", ["initial_guess", "correction_step"])
def test_qr_stages_reject_traces_off_the_grids_t_nodes(stage, t0, dt_factor):
    """Both QR stages refuse, as ``make_context`` does, a trace of the right
    length that starts late or steps by another dt, instead of solving with
    its samples laid on the wrong times."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 10, 10)
    good = Signal(0.0, g.dt, np.full(g.nt + 1, 0.5))
    off = Signal(t0, g.dt * dt_factor, np.full(g.nt + 1, 0.5))
    q = QField(Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    for q_eps, qx_eps in [(off, good), (good, off)]:
        with pytest.raises(ValueError, match="t-nodes"):
            if stage == "initial_guess":
                initial_guess(q_eps, qx_eps, g, QRConfig(), DEFAULT_C_UPPER)
            else:
                correction_step(q, q_eps, qx_eps, QRConfig(), True)


@pytest.mark.parametrize("freeze_time_derivative", [True, False])
def test_correction_constant_fixed_point(freeze_time_derivative):
    """A consistent constant iterate reproduces itself, with the time
    derivative frozen as a source or kept as an unknown."""
    g = SpaceTimeGrid(0.0, 3.0, 6.0, 25, 25)
    q_eps, qx_eps = _const_signals(g)
    q = QField(Field2D(g, np.full(g.shape, 0.5)), FLOOR)
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
    frozen = QField(Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    # the frozen time-derivative source is zero for the constant iterate
    q1 = correction_step(frozen, q_eps, qx_eps, QRConfig(), True)
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
    q = QField(Field2D(g, np.full(g.shape, 0.5)), FLOOR)
    q1 = correction_step(q, q_eps, qx_eps, QRConfig(), True)
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
        initial_guess(q_eps, qx_eps, g, QRConfig(), DEFAULT_C_UPPER)


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


def test_solve_quadratic_dissects_its_default_one_row_grid():
    """Above LEAF_SIZE unknowns the default (1, n) grid is split into several
    fronts; the solution still matches a dense solve of the normal equations."""
    n = 400
    assert n > solver.LEAF_SIZE and len(solver.dissection_tree(1, n).fronts) > 1
    rng = np.random.default_rng(3)
    D2 = d2_matrix(n - 1, 1.0)  # unit spacing keeps the normal matrix well conditioned
    w, b = rng.uniform(0.5, 2.0, n), rng.normal(size=n)
    terms = [(D2, w, b), (sp.identity(n, format="csr"), np.ones(n), None)]
    sol, rel_residual = solver.solve_quadratic(terms, (), np.ones(n), 1e-11, n)
    D2 = D2.toarray()
    ref = np.linalg.solve(D2.T @ (w[:, None] * D2) + np.eye(n), D2.T @ (w * b))
    assert np.linalg.norm(sol - ref) <= 1e-10 * np.linalg.norm(ref)
    assert rel_residual <= 1e-10


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
        q0, _ = initial_guess(q_eps, qx_eps, g, QRConfig(), DEFAULT_C_UPPER)
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
    q0, _ = initial_guess(q_eps, qx_eps, g, QRConfig(), DEFAULT_C_UPPER)
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
CACHE_N = CACHE_SHAPE[0] * CACHE_SHAPE[1]


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


def test_pivot_blocks_are_stored_packed(empty_analysis_cache):
    """Each front keeps the k(k+1)/2 lower-triangle entries of L11, column by
    column, beside its dense L21; together they are the Cholesky factor of A
    in elimination order, and the solve matches a dense solve."""
    A = _grid_matrix(_neighbour_pairs(*CACHE_SHAPE), 5)
    chol = solver.GridCholesky(A, CACHE_SHAPE)
    L = np.zeros(A.shape)
    for f, (L11, L21) in zip(chol.tree.fronts, chol.factors):
        k = f.stop - f.start
        assert L11.shape == (k * (k + 1) // 2,)
        assert L21.shape == (f.rows.size - k, k)
        cols, rows = np.triu_indices(k)
        L[f.start + rows, f.start + cols] = L11
        L[f.rows[k:], f.start:f.stop] = L21
    order = chol.tree.order
    assert np.allclose(L, np.linalg.cholesky(A.toarray()[np.ix_(order, order)]), atol=1e-12)
    _assert_matches_dense(A)


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


def _reference_analyze(tree, A, shape, key):
    """``solver._analyze`` as it was before its per-entry arrays held int32
    positions and were dropped once read."""
    n = tree.order.size
    starts = np.array([f.start for f in tree.fronts])
    pivots = np.array([f.stop - f.start for f in tree.fronts])
    sizes = np.array([f.rows.size for f in tree.fronts])
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
    dst = solver._compact(dst[by_group])
    ids = {}
    structure = tuple(
        ids.setdefault((
            f.stop - f.start,
            f.rows.size,
            dst[bounds[2 * i]:bounds[2 * i + 1]].tobytes(),
            dst[bounds[2 * i + 1]:bounds[2 * i + 2]].tobytes(),
            tuple(tuple((b, *(end for s in add for end in (s.start, s.stop)))
                        for b, *add in adds) for adds in f.extend),
        ), len(ids))
        for i, f in enumerate(tree.fronts)
    )
    return solver._Analysis(key, solver._compact(src[by_group]), dst, bounds, structure)


def _assert_analysis_equals_reference(A, shape):
    tree = solver.dissection_tree(*shape)
    got = solver._analyze(tree, A, shape, b"key")
    ref = _reference_analyze(tree, A, shape, b"key")
    assert got.key == ref.key and got.structure == ref.structure
    for name in ("src", "dst", "bounds"):
        mine, theirs = getattr(got, name), getattr(ref, name)
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), name


@pytest.mark.parametrize("nx, nt", [(23, 31), (60, 60), (200, 200)])
def test_analysis_equals_the_reference_on_the_qr_patterns(monkeypatch, nx, nt):
    """The initial guess's and both corrections' normal matrices analyze to
    the reference's src, dst and bounds, dtypes included, and structure."""
    systems = _qr_normal_matrices(monkeypatch, nx, nt, (True, False))
    assert len(systems) == 3
    for matrix, shape, _, _ in systems:
        assert matrix.format == "csr" and matrix.has_canonical_format
        _assert_analysis_equals_reference(matrix, shape)


def test_analysis_equals_the_reference_on_the_default_one_row_grid():
    n = 400
    D2 = d2_matrix(n - 1, 1.0)
    _assert_analysis_equals_reference((D2.T @ D2 + sp.identity(n)).tocsr(), (1, n))


# ---------------------------------------------------------------------------
# GridCholesky's classes of equal fronts
# ---------------------------------------------------------------------------

def _per_front_factors(matrix, shape):
    """The factor with every front assembled and factored on its own, as
    GridCholesky factored it before equal fronts shared one factorization."""
    tree = solver.dissection_tree(*shape)
    A = sp.csr_matrix(matrix)
    A.sum_duplicates()
    an = solver.analysis_for(A, shape)
    factors, updates = [], {}
    for i, f in enumerate(tree.fronts):
        m, k = f.rows.size, f.stop - f.start
        blocks = (
            np.zeros((k, k), order="F"),
            np.zeros((m - k, k), order="F"),
            np.zeros((m - k, m - k), order="F"),
        )
        for block, g in zip(blocks, (2 * i, 2 * i + 1)):
            lo, hi = an.bounds[g], an.bounds[g + 1]
            block.reshape(-1, order="F")[an.dst[lo:hi]] = A.data[an.src[lo:hi]]
        for child, adds in zip(f.children, f.extend):
            update = updates.pop(child)
            for b, rows, cols, u_rows, u_cols in adds:
                dest = blocks[b][rows, cols]
                np.add(dest, update[u_rows, u_cols], out=dest)
        L11, info = dpotrf(blocks[0], lower=1, overwrite_a=1)
        assert info == 0
        L21 = dtrsm(1.0, L11, blocks[1], side=1, lower=1, trans_a=1, overwrite_b=1)
        if m > k:
            updates[i] = dsyrk(-1.0, L21, beta=1.0, c=blocks[2], lower=1, overwrite_c=1)
        factors.append((dtrttp(L11, uplo="L")[0], L21))
    return factors


def _qr_normal_matrices(monkeypatch, nx, nt, corrections):
    """The systems that ``initial_guess`` and then ``correction_step``, once
    per entry of ``corrections`` (its ``freeze_time_derivative``), solve on
    an nx x nt grid, each as the normal matrix that GridCholesky factors,
    its grid shape, the right-hand side it solves for, and the positional
    arguments of the ``solve_quadratic`` call that assembled them."""
    factored, solved, inputs = [], [], []

    class Recorded(solver.GridCholesky):
        def __init__(self, matrix, shape):
            factored.append((matrix, shape))
            super().__init__(matrix, shape)

        def solve(self, b):
            solved.append(b.copy())
            return super().solve(b)

    exact = solver.solve_quadratic

    def recorded(*args, **kwargs):
        inputs.append(args)
        return exact(*args, **kwargs)

    monkeypatch.setattr(solver, "GridCholesky", Recorded)
    monkeypatch.setattr(solver, "solve_quadratic", recorded)
    g = SpaceTimeGrid(0.0, 3.0, 6.0, nx, nt)
    t = g.t_nodes()
    q_eps = Signal(0.0, g.dt, 0.5 + 0.02 * np.sin(t))
    qx_eps = Signal(0.0, g.dt, 0.1 * np.cos(t))
    q0, _ = initial_guess(q_eps, qx_eps, g, QRConfig(), DEFAULT_C_UPPER)
    for freeze in corrections:
        correction_step(q0, q_eps, qx_eps, QRConfig(), freeze)
    monkeypatch.undo()
    return [(*system, b, args) for system, b, args in zip(factored, solved, inputs, strict=True)]


def _constant_matrix(pairs, shape):
    """5 on the diagonal and -1 on each coupling of ``pairs``: one value per
    kind of entry, whatever the node."""
    n = shape[0] * shape[1]
    i, j = np.array(pairs).T
    off = sp.csr_matrix((-np.ones(i.size), (i, j)), shape=(n, n))
    return (off + off.T + 5.0 * sp.identity(n)).tocsr()


def _distinct(chol):
    return len({id(L11) for L11, _ in chol.factors})


def _assert_equals_per_front(chol, matrix, shape):
    reference = _per_front_factors(matrix, shape)
    assert len(chol.factors) == len(reference) == len(chol.tree.fronts)
    for (L11, L21), (r11, r21) in zip(chol.factors, reference):
        assert np.array_equal(L11, r11) and np.array_equal(L21, r21)


@pytest.mark.parametrize("nx, nt, corrections", [
    (23, 31, (True, False)),  # the three QR stages
    (60, 60, (False,)),  # the production grid's initial guess and correction
    (400, 2, (False,)),  # a lopsided (401, 3) grid, split along x only
])
def test_shared_fronts_equal_the_per_front_factorization_on_qr_matrices(
    monkeypatch, nx, nt, corrections
):
    """Sharing a factor between equal fronts changes no bit of any front's
    L11 or L21."""
    systems = _qr_normal_matrices(monkeypatch, nx, nt, corrections)
    assert len(systems) == 1 + len(corrections)
    for matrix, shape, _, _ in systems:
        _assert_equals_per_front(solver.GridCholesky(matrix, shape), matrix, shape)


def _per_term_normal_equations(terms, reg_ops, reg_weight_vec, reg_eta, n_unknowns):
    """The normal matrix and right-hand side summed one term at a time, as
    solve_quadratic assembled them before it stacked its terms."""
    normal = sp.csr_matrix((n_unknowns, n_unknowns))
    rhs = np.zeros(n_unknowns)
    for L, w, b in terms:
        Lw = L.T @ sp.diags(w)
        normal = normal + Lw @ L
        if b is not None:
            rhs = rhs + Lw @ b
    return normal + reg_eta * weighted_gram(reg_ops, reg_weight_vec), rhs


@pytest.mark.parametrize("nx, nt", [(23, 31), (60, 60)])
def test_stacked_assembly_equals_the_per_term_sums(monkeypatch, nx, nt):
    """The initialization and both correction variants hand GridCholesky,
    to the bit, the CSR normal matrix and the right-hand side that summing
    their terms one at a time gives."""
    systems = _qr_normal_matrices(monkeypatch, nx, nt, (True, False))
    assert len(systems) == 3
    for A, _, b, args in systems:
        A_ref, b_ref = _per_term_normal_equations(*args)
        assert A.format == A_ref.format == "csr"
        assert np.array_equal(A.indptr, A_ref.indptr)
        assert np.array_equal(A.indices, A_ref.indices)
        assert np.array_equal(A.data, A_ref.data)
        assert np.array_equal(b, b_ref)


def test_the_production_initial_guess_factors_fewer_fronts_than_it_has(monkeypatch):
    """The 60x60 initial guess has constant coefficients, so translated
    leaves and separators of the interior repeat and share one factor."""
    (matrix, shape, _, _), = _qr_normal_matrices(monkeypatch, 60, 60, ())
    chol = solver.GridCholesky(matrix, shape)
    assert _distinct(chol) < len(chol.tree.fronts)


def test_constant_coefficient_matrices_share_fronts(empty_analysis_cache):
    """On CACHE_SHAPE a 5-point pattern repeats no front: the leaves on
    either side of a separator are mirror images, not translates. On the
    lopsided (401, 3) grid its translated leaves and separators repeat. With
    no coupling at all (5 I) the two leaves beside a separator are equal too,
    so their parent reads one class's update matrix twice."""
    lopsided = (401, 3)
    for A, shape, shares in [
        (_constant_matrix(_neighbour_pairs(*CACHE_SHAPE), CACHE_SHAPE), CACHE_SHAPE, False),
        (_constant_matrix(_neighbour_pairs(*lopsided), lopsided), lopsided, True),
        (5.0 * sp.identity(CACHE_SHAPE[0] * CACHE_SHAPE[1], format="csr"), CACHE_SHAPE, True),
    ]:
        chol = solver.GridCholesky(A, shape)
        _assert_equals_per_front(chol, A, shape)
        _assert_matches_dense(A, shape)
        assert (_distinct(chol) < len(chol.tree.fronts)) == shares
    assert any(
        len(f.children) == 2 and chol.factors[f.children[0]] is chol.factors[f.children[1]]
        for f in chol.tree.fronts
    )


def test_random_values_share_no_front(empty_analysis_cache):
    A = _grid_matrix(_neighbour_pairs(*CACHE_SHAPE), 6)
    chol = solver.GridCholesky(A, CACHE_SHAPE)
    assert _distinct(chol) == len(chol.tree.fronts)


def test_a_perturbed_leaf_stops_sharing_only_along_its_path_to_the_root(empty_analysis_cache):
    """Raising one diagonal entry inside an interior leaf of the lopsided
    (401, 3) grid changes the class of that leaf and its ancestors; every
    other front keeps its factor and its sharing."""
    shape = (401, 3)
    A = _constant_matrix(_neighbour_pairs(*shape), shape)
    before = solver.GridCholesky(A, shape)
    fronts = before.tree.fronts
    parent = {c: i for i, f in enumerate(fronts) for c in f.children}
    leaves = [i for i, f in enumerate(fronts) if not f.children]
    leaf = leaves[len(leaves) // 2]
    assert sum(before.factors[i] is before.factors[leaf] for i in leaves) > 1
    path = {leaf}
    while max(path) in parent:
        path.add(parent[max(path)])
    node = before.tree.order[(fronts[leaf].start + fronts[leaf].stop) // 2]
    perturbed = A.tolil()
    perturbed[node, node] += 0.5
    perturbed = perturbed.tocsr()
    after = solver.GridCholesky(perturbed, shape)
    _assert_equals_per_front(after, perturbed, shape)
    assert all(after.factors[i] is not after.factors[leaf] for i in range(len(fronts)) if i != leaf)
    kept = [i for i in range(len(fronts)) if i not in path]
    for i in kept:
        assert all(np.array_equal(a, b) for a, b in zip(after.factors[i], before.factors[i]))
        for j in kept:
            assert (after.factors[i] is after.factors[j]) == (before.factors[i] is before.factors[j])
    _assert_matches_dense(perturbed, shape)


def test_solve_accepts_an_integer_right_hand_side(empty_analysis_cache):
    """An integer b solves as its float64 copy does, to the bit, and
    neither argument is written."""
    chol = solver.GridCholesky(_grid_matrix(_neighbour_pairs(*CACHE_SHAPE), 3), CACHE_SHAPE)
    n = CACHE_SHAPE[0] * CACHE_SHAPE[1]
    b_int, b_float = np.arange(n), np.arange(n, dtype=float)
    x = chol.solve(b_int)
    assert np.array_equal(x, chol.solve(b_float)) and x.dtype == np.float64
    assert np.array_equal(b_int, np.arange(n)) and b_int.dtype == np.arange(n).dtype
    assert np.array_equal(b_float, np.arange(n, dtype=float))


@pytest.mark.parametrize(
    "shape", [(CACHE_N + 1,), (CACHE_N - 1,), (CACHE_N, 1), (1, CACHE_N)],
    ids=["longer", "shorter", "column", "row"],
)
def test_solve_refuses_a_right_hand_side_that_does_not_fit(empty_analysis_cache, shape):
    """A b of any shape but (n,) raises ValueError naming n: a longer b is
    not cut to its first n entries, and a shorter one fails as loudly."""
    chol = solver.GridCholesky(_grid_matrix(_neighbour_pairs(*CACHE_SHAPE), 3), CACHE_SHAPE)
    with pytest.raises(ValueError, match=f"fit {CACHE_N} unknowns"):
        chol.solve(np.ones(shape))


def test_solves_leave_shared_blocks_unchanged(empty_analysis_cache):
    shape = (401, 3)
    A = _constant_matrix(_neighbour_pairs(*shape), shape)
    chol = solver.GridCholesky(A, shape)
    assert _distinct(chol) < len(chol.tree.fronts)
    saved = [(L11.copy(), L21.copy()) for L11, L21 in chol.factors]
    b = np.random.default_rng(1).normal(size=A.shape[0])
    first = chol.solve(b.copy())
    assert np.array_equal(chol.solve(b.copy()), first)
    for (L11, L21), (s11, s21) in zip(chol.factors, saved):
        assert np.array_equal(L11, s11) and np.array_equal(L21, s21)


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
    initial_guess(q_eps, qx_eps, g, QRConfig(), DEFAULT_C_UPPER)
    ops = operators_for(g)
    assert len(added) == 1 and added[0] is ops.H2
    explicit = sum(R.T.toarray() @ (ops.w2.ravel()[:, None] * R.toarray()) for R in ops.h2_ops)
    assert np.allclose(ops.H2.toarray(), explicit, rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# invert
# ---------------------------------------------------------------------------

def test_invert_null_scatterer(inversion_grid):
    """The answer is the background, and so is the quasi-reversibility
    initialization that invert starts from (built here as invert builds it,
    with the production settings)."""
    cfg = RunConfig()
    d = null_boundary_data()
    res = invert_from_config(d, cfg)
    assert np.max(np.abs(res.c_comp.c - 1.0)) < 0.02
    q_eps, qx_eps = boundary_traces_from_data(d, inversion_grid, cfg.inversion.diff_reg)
    q0, _ = initial_guess(q_eps, qx_eps, inversion_grid, cfg.qr, cfg.inversion.c_upper)
    assert np.allclose(c_from_q(q0).c, 1.0, atol=1e-6)


def test_invert_stops_when_the_correction_moves_c_little():
    """On the null scatterer the correction moves c by less than STOP_LINF,
    so the run ends with the leg-1 answer and leg 2 never runs."""
    cfg = RunConfig()
    res = invert_from_config(null_boundary_data(), cfg)
    assert res.corrections == 1
    assert res.converged is True
    [leg] = res.legs
    assert leg["reason"] == "max_iters"
    assert len(leg["steps"]) == cfg.descent.max_iters


def test_invert_deterministic():
    d = cached_boundary_data("test3")
    r1 = invert_from_config(d, RunConfig())
    r2 = invert_from_config(d, RunConfig())
    assert np.array_equal(r1.c_comp.c, r2.c_comp.c)


def test_invert_diagnostics_monotone_within_legs():
    d = cached_boundary_data("test3")
    res = invert_from_config(d, RunConfig())
    for leg, info in enumerate(res.legs):
        J = info["J"]
        assert all(J[i + 1] <= J[i] + 1e-15 for i in range(len(J) - 1)), leg


def test_invert_keeps_each_legs_descend_record():
    """On test3 both legs run out their budgets, and the profile is read
    from the returned iterate, not stored beside it."""
    cfg = RunConfig()
    res = invert_from_config(cached_boundary_data("test3"), cfg)
    assert [info["reason"] for info in res.legs] == ["max_iters", "max_iters"]
    budgets = [cfg.descent.max_iters, cfg.descent.redescent_iters]
    assert [len(info["steps"]) for info in res.legs] == budgets == [300, 2000]
    for info in res.legs:
        assert len(info["J"]) == len(info["steps"]) + 1
        assert len(info["grad_norm"]) == len(info["steps"])
    assert np.array_equal(res.c_comp.c, c_from_q(res.q).c)


def test_invert_final_iterate_is_descent_output(inversion_grid):
    """The reconstruction must come from the last descent leg, not a raw
    correction solve: its objective value equals the last leg's last J."""
    cfg = RunConfig()
    d = cached_boundary_data("test3")
    res = invert_from_config(d, cfg)
    q_eps, qx_eps = boundary_traces_from_data(d, inversion_grid, cfg.inversion.diff_reg)
    ctx = make_context(inversion_grid, q_eps, qx_eps, cfg.convex, cfg.inversion.c_upper)
    J_final = evaluate_J(res.q, ctx)
    assert J_final == pytest.approx(res.legs[-1]["J"][-1], rel=1e-12)


@pytest.mark.parametrize("c_upper", [0.5, 1.0, -1.0, float("nan"), float("inf")])
def test_stages_refuse_a_c_bound_the_config_refuses(inversion_grid, c_upper):
    """The floor's one validity rule: ``initial_guess``, ``make_context`` and
    ``invert`` raise InversionConfig's ValueError for a c_upper outside (1, inf)."""
    cfg = RunConfig()
    d = cached_boundary_data("test1")
    q_eps, qx_eps = boundary_traces_from_data(d, inversion_grid, cfg.inversion.diff_reg)
    stages = [
        lambda: InversionConfig(c_upper=c_upper),
        lambda: initial_guess(q_eps, qx_eps, inversion_grid, cfg.qr, c_upper),
        lambda: make_context(inversion_grid, q_eps, qx_eps, cfg.convex, c_upper),
        lambda: solver.invert(d, inversion_grid, cfg.convex, cfg.qr, solver.DescentConfig(5, 5),
                              diff_reg=cfg.inversion.diff_reg, c_upper=c_upper,
                              freeze_time_derivative=True),
    ]
    for stage in stages:
        with pytest.raises(ValueError, match="c_upper must be finite and exceed the background"):
            stage()
