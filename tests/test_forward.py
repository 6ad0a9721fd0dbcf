"""Forward wave simulation: detector-level facts, accuracy, and errors."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpttrf, dpttrs

from cached_data import cached_boundary_data, null_boundary_data
from convexiwave import forward
from convexiwave.errors import OffGridObservation, SingularSystem
from convexiwave.fixtures import FIXTURE_NAMES, fixture_medium, medium_from_pieces
from convexiwave.forward import (
    FORWARD_GRID,
    BoundaryData,
    MediumProfile,
    add_noise,
    boundary_data,
    initial_velocity,
    simulate,
    tikhonov_differentiate,
)
from convexiwave.grid import Signal, SpaceTimeGrid


def _constant_medium(c_value, grid):
    x = np.linspace(grid.x_min, grid.x_max, grid.nx + 1)
    return MediumProfile(x, np.full(x.size, float(c_value)))


def _layered_medium(grid):
    pieces = [
        {"kind": "step", "center": 0.4, "halfwidth": 0.15, "value": 6.0},
        {"kind": "step", "center": 0.9, "halfwidth": 0.2, "value": 2.5},
    ]
    return medium_from_pieces(pieces, grid)


def _reference_simulate(c, grid):
    """The sparse-LU, column-major stepper: u[:, n] is time level n, the full
    step matrix is assembled from a Python triplet loop, factored by SuperLU,
    and every step is checked."""
    x = grid.x_nodes()
    nx, nt = grid.nx, grid.nt
    dx, dt = grid.dx, grid.dt
    cv = c.sample(x)
    r = 0.5 * dt * dt / (dx * dx)
    rows, cols, vals = [], [], []
    for i in range(1, nx):
        rows += [i, i, i]
        cols += [i - 1, i, i + 1]
        vals += [-r, cv[i] + 2.0 * r, -r]
    rows += [0, 0, 0]
    cols += [0, 1, 2]
    vals += [3.0 / (2 * dt) + 3.0 / (2 * dx), -4.0 / (2 * dx), 1.0 / (2 * dx)]
    rows += [nx, nx, nx]
    cols += [nx, nx - 1, nx - 2]
    vals += [3.0 / (2 * dt) + 3.0 / (2 * dx), -4.0 / (2 * dx), 1.0 / (2 * dx)]
    lu = spla.splu(sp.csc_matrix((vals, (rows, cols)), shape=(nx + 1, nx + 1)))
    u = np.zeros((nx + 1, nt + 1))
    u[:, 1] = dt * initial_velocity(x)
    u[0, 1] = u[nx, 1] = 0.0
    rhs = np.zeros(nx + 1)
    for n in range(1, nt):
        rhs[1:nx] = cv[1:nx] * (2.0 * u[1:nx, n] - u[1:nx, n - 1]) + r * (
            u[0 : nx - 1, n - 1] - 2.0 * u[1:nx, n - 1] + u[2 : nx + 1, n - 1]
        )
        rhs[0] = (4.0 * u[0, n] - u[0, n - 1]) / (2 * dt)
        rhs[nx] = (4.0 * u[nx, n] - u[nx, n - 1]) / (2 * dt)
        sol = lu.solve(rhs)
        assert np.all(np.isfinite(sol))
        u[:, n + 1] = sol
    return u


def _full_update_simulate(c, grid):
    """The tridiagonal stepper with full-length end corrections: each step
    writes the solve's result back onto its row, reads the end values as
    numpy scalars from the buffer, and adds both corrections over the whole
    interior."""
    x = grid.x_nodes()
    nx, nt = grid.nx, grid.nt
    dx, dt = grid.dx, grid.dt
    cv = c.sample(x)
    r = 0.5 * dt * dt / (dx * dx)
    d, e, info = dpttrf(cv[1:nx] + 2.0 * r, np.full(max(nx - 2, 1), -r))
    assert info == 0
    P = np.zeros((nx + 1, 2))
    P[1, 0] = P[nx - 1, 1] = r
    P[1:nx], _ = dpttrs(d, e, P[1:nx])
    z1, z2 = P[1:nx, 0].copy(), P[1:nx, 1].copy()
    B = P.copy()
    B[0, 0] = B[nx, 1] = 1.0
    edge = np.array([3.0 / (2 * dt) + 3.0 / (2 * dx), -4.0 / (2 * dx), 1.0 / (2 * dx)])
    lo, hi = [0, 1, 2], [nx, nx - 1, nx - 2]
    s00, s01, s10, s11 = np.linalg.inv(np.stack([edge @ B[lo], edge @ B[hi]])).ravel().tolist()
    M = np.stack([edge @ P[lo], edge @ P[hi]]) + np.eye(2) / (2 * dt)
    m00, m01, m10, m11 = M.ravel().tolist()
    _, a1, a2 = edge.tolist()
    b = 2.0 / dt
    c2 = 2.0 * cv[1:nx]
    U = np.zeros((nt + 1, nx + 1))
    U[1] = dt * initial_velocity(x)
    U[1, 0] = U[1, nx] = 0.0
    for n in range(1, nt):
        cur, prev, nxt = U[n], U[n - 1], U[n + 1]
        np.multiply(c2, cur[1:nx], out=nxt[1:nx])
        nxt[1:nx], _ = dpttrs(d, e, nxt[1:nx], overwrite_b=1)
        nxt[1:nx] -= prev[1:nx]
        p0, pn = prev[0], prev[nx]
        g0 = b * cur[0] - a1 * nxt[1] - a2 * nxt[2] - p0 * m00 - pn * m01
        gn = b * cur[nx] - a1 * nxt[nx - 1] - a2 * nxt[nx - 2] - p0 * m10 - pn * m11
        u0 = s00 * g0 + s01 * gn
        un = s10 * g0 + s11 * gn
        nxt[1:nx] += (p0 + u0) * z1
        nxt[1:nx] += (pn + un) * z2
        nxt[0], nxt[nx] = u0, un
    return U.T


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_simulate_equals_full_length_corrections_on_fixture_media(name):
    """Cutting the end corrections to their support changes no bit of the
    field on the fixture media, where only 294 of 2999 entries are kept."""
    medium = fixture_medium(name)
    u = simulate(medium, FORWARD_GRID)
    ref = _full_update_simulate(medium, FORWARD_GRID)
    assert np.array_equal(u.values, ref)


@pytest.mark.parametrize("nx", [2, 3, 4])
def test_simulate_equals_full_length_corrections_on_coarsest_grids(nx):
    grid = SpaceTimeGrid(-1.0, 1.0, 1.0, nx, 10)
    medium = _layered_medium(grid)
    u = simulate(medium, grid)
    assert np.array_equal(u.values, _full_update_simulate(medium, grid))


def test_simulate_matches_sparse_lu_reference_stepper():
    """The tridiagonal stepper reproduces the sparse-LU stepper up to roundoff."""
    grid = SpaceTimeGrid(-2.0, 2.0, 2.0, 800, 120)
    medium = _layered_medium(grid)
    u = simulate(medium, grid)
    assert u.values.shape == grid.shape
    ref = _reference_simulate(medium, grid)
    assert np.max(np.abs(u.values - ref)) <= 1e-12


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_simulate_matches_sparse_lu_reference_on_fixture_media(name):
    medium = fixture_medium(name)
    u = simulate(medium, FORWARD_GRID)
    ref = _reference_simulate(medium, FORWARD_GRID)
    assert np.max(np.abs(u.values - ref)) <= 1e-10


@pytest.mark.parametrize("nx", [2, 3, 4])
def test_simulate_matches_sparse_lu_reference_on_coarsest_grids(nx):
    """With nx = 2 the end stencils reach the far end node, and the interior
    block is 1x1."""
    grid = SpaceTimeGrid(-1.0, 1.0, 1.0, nx, 10)
    medium = _layered_medium(grid)
    u = simulate(medium, grid)
    ref = _reference_simulate(medium, grid)
    assert np.max(np.abs(u.values - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_simulate_raises_singular_system_on_non_finite_step(monkeypatch, bad):
    """A step that goes non-finite is caught by the one finiteness check, the
    ``Field2D`` construction of the result."""
    real_dpttrs = forward.dpttrs
    calls = []

    def bad_dpttrs(d, e, b, overwrite_b=0):
        calls.append(1)
        x, info = real_dpttrs(d, e, b, overwrite_b=overwrite_b)
        if len(calls) == 5:
            x[len(x) // 2] = bad
        return x, info

    monkeypatch.setattr(forward, "dpttrs", bad_dpttrs)
    grid = SpaceTimeGrid(-1.0, 1.0, 1.0, 60, 30)
    with pytest.raises(SingularSystem, match="non-finite"):
        simulate(_layered_medium(grid), grid)
    assert len(calls) == grid.nt


@pytest.mark.parametrize("call", [5, 30], ids=["early", "last"])
def test_simulate_raises_singular_system_on_nan_past_the_support(monkeypatch, call):
    """A NaN in an interior entry that neither end correction touches is
    still caught, whether later solves spread it (early) or not (last)."""
    real_dpttrs = forward.dpttrs
    calls, supports = [], []

    def nan_dpttrs(d, e, b, overwrite_b=0):
        calls.append(1)
        x, info = real_dpttrs(d, e, b, overwrite_b=overwrite_b)
        if len(calls) == 1:  # the solve for [z1, z2]
            supports.extend([forward._support(x[:, 0]), forward._support(x[::-1, 1])])
        if len(calls) == call:
            x[len(x) // 2] = np.nan
        return x, info

    monkeypatch.setattr(forward, "dpttrs", nan_dpttrs)
    grid = SpaceTimeGrid(-5.0, 5.0, 0.6, 3000, 30)  # the fixtures' dx and dt
    with pytest.raises(SingularSystem, match="non-finite"):
        simulate(_layered_medium(grid), grid)
    assert len(calls) == grid.nt
    assert supports == [294, 294]  # the NaN goes into entry 1499 of 2999


def test_simulate_raises_singular_system_when_factorization_fails(monkeypatch):
    real_dpttrf = forward.dpttrf

    def failing_dpttrf(d, e):
        d, e, _ = real_dpttrf(d, e)
        return d, e, 3

    monkeypatch.setattr(forward, "dpttrf", failing_dpttrf)
    grid = SpaceTimeGrid(-1.0, 1.0, 1.0, 60, 30)
    with pytest.raises(SingularSystem, match="singular"):
        simulate(_layered_medium(grid), grid)


def test_null_scatterer_detector_value():
    """With c = 1 everywhere the detector reads the flat background 1/2."""
    d = null_boundary_data()
    t = d.g0.times()
    late = d.g0.samples[t > 0.3]
    assert np.max(np.abs(late - 0.5)) < 1e-3


def test_null_scatterer_g1_flat():
    d = null_boundary_data()
    t = d.g1.times()
    assert np.max(np.abs(d.g1.samples[t > 0.3])) < 1e-2


def test_front_speed_constant_four():
    """In c = 4 the front moves at speed 1/2.

    Comparing first-motion times at two depths cancels the finite width of
    the source pulse: the delay between x = 0.5 and x = 1.5 must be 2.0.
    """
    grid = SpaceTimeGrid(-5.0, 5.0, 6.0, 3000, 1500)
    medium = _constant_medium(4.0, grid)
    u = simulate(medium, grid)
    t = grid.t_nodes()

    def first_motion(depth):
        i = np.argmin(np.abs(grid.x_nodes() - depth))
        moved = np.nonzero(np.abs(u.values[i]) > 0.05)[0]
        return t[moved[0]]

    assert first_motion(1.5) - first_motion(0.5) == pytest.approx(2.0, abs=0.1)


@pytest.mark.slow
def test_front_amplitude_closed_form_resolved_grid():
    """u behind the front equals 1/(2 c^{1/4}) for smooth media.

    Checked on a time-resolved grid; a band of +-0.1 around the front (the 3
    sigma smoothing width of the regularized source) is excluded.
    """
    grid = SpaceTimeGrid(-5.0, 5.0, 6.0, 3000, 3000)
    medium = _constant_medium(1.0, grid)
    u, _ = boundary_data(medium, grid, 0.0, 0.0, 0)
    x = grid.x_nodes()
    t = grid.t_nodes()
    X, T = np.meshgrid(x, t, indexing="ij")
    behind = T > np.abs(X) + 0.1
    dev = np.abs(u.values[behind] - 0.5)
    assert np.max(dev) < 0.02


@pytest.mark.slow
def test_causality_resolved_grid():
    grid = SpaceTimeGrid(-5.0, 5.0, 6.0, 3000, 3000)
    medium = _constant_medium(1.0, grid)
    u = simulate(medium, grid)
    x = grid.x_nodes()
    t = grid.t_nodes()
    X, T = np.meshgrid(x, t, indexing="ij")
    outside = T < np.abs(X) - 0.1
    assert np.max(np.abs(u.values[outside])) < 0.02


def test_reflection_present_for_inclusion():
    d = cached_boundary_data("test1")
    assert np.max(np.abs(d.g0.samples - 0.5)) > 0.05


def _reference_boundary_data(c, grid, eps, delta, seed):
    """The traces ``boundary_data`` states, built step by step: read u and
    the one-sided u_x of the simulated field at x = eps, set them to 1/2 and
    0 for t <= eps + 0.26, then add the noise pair."""
    u = simulate(c, grid).values
    i = int(round((eps - grid.x_min) / grid.dx))
    g0 = u[i].copy()
    g1 = (-3.0 * u[i] + 4.0 * u[i + 1] - u[i + 2]) / (2.0 * grid.dx)
    front = grid.t_nodes() <= eps + 0.26
    g0[front] = 0.5
    g1[front] = 0.0
    g0, g1 = Signal(0.0, grid.dt, g0), Signal(0.0, grid.dt, g1)
    if delta > 0:
        g0 = add_noise(g0, delta, seed)
        g1 = add_noise(g1, delta, seed + 1)
    return u, BoundaryData(g0=g0, g1=g1)


@pytest.mark.parametrize("delta", [0.0, 0.05])
def test_boundary_data_matches_reference_chain(delta):
    """``boundary_data`` returns the simulated field untouched, and its g0 and
    g1 equal the step-by-step chain's to the bit, without noise and with it."""
    grid = SpaceTimeGrid(-2.0, 2.0, 2.0, 800, 120)
    medium = _layered_medium(grid)
    args = (medium, grid, 0.0, delta, 7)
    u, d = boundary_data(*args)
    u_ref, d_ref = _reference_boundary_data(*args)
    assert np.array_equal(u.values, u_ref)
    assert np.array_equal(d.g0.samples, d_ref.g0.samples)
    assert np.array_equal(d.g1.samples, d_ref.g1.samples)
    assert (d.g0.dt, d.g1.dt) == (d_ref.g0.dt, d_ref.g1.dt)


def test_correct_near_origin_box():
    """At x = 0, ``boundary_data`` sets g0 to 1/2 and g1 to 0 for exactly
    t <= 0.26, reads the rest of both traces from the simulated field, and
    returns that field untouched."""
    grid = SpaceTimeGrid(-1.0, 1.0, 1.0, 100, 100)
    medium = _constant_medium(1.0, grid)
    raw = simulate(medium, grid).values
    u, d = boundary_data(medium, grid, 0.0, 0.0, 0)
    assert np.array_equal(u.values, raw)
    front = slice(0, 27)  # t = 0, 0.01, ..., 0.26
    assert np.all(d.g0.samples[front] == 0.5) and np.all(d.g1.samples[front] == 0.0)
    ux = (-3.0 * raw[50] + 4.0 * raw[51] - raw[52]) / (2.0 * grid.dx)
    assert np.array_equal(d.g0.samples[27:], raw[50, 27:])
    assert np.array_equal(d.g1.samples[27:], ux[27:])
    assert d.g0.samples[27] != 0.5


def test_extract_boundary_off_grid():
    """x = 0 must be a node with two nodes to its right: an odd nx, nx = 2 and
    a grid starting right of 0 raise OffGridObservation."""
    for grid in (
        SpaceTimeGrid(-1.0, 1.0, 1.0, 21, 20),
        SpaceTimeGrid(-1.0, 1.0, 1.0, 601, 20),
        SpaceTimeGrid(-1.0, 1.0, 1.0, 2, 20),
        SpaceTimeGrid(0.5, 1.5, 1.0, 20, 20),
    ):
        with pytest.raises(OffGridObservation):
            boundary_data(_constant_medium(1.0, grid), grid, 0.0, 0.0, 0)
    grid = SpaceTimeGrid(-1.0, 1.0, 1.0, 4, 20)  # x = 0 is node 2 of 4: just enough
    _, d = boundary_data(_constant_medium(1.0, grid), grid, 0.0, 0.0, 0)
    assert d.g0.samples.size == d.g1.samples.size == 21


@pytest.mark.parametrize("eps", [0.1, 1.99])
def test_boundary_data_records_at_the_observation_point(eps):
    """g0 and g1 are u and the one-sided u_x of the simulated field at the
    node x = eps, which may sit just two nodes short of the right end, once
    the incident wave has passed it: for t <= eps + 0.26 they are 1/2 and 0."""
    grid = SpaceTimeGrid(-2.0, 2.0, 3.0, 800, 180)  # dx = 0.005, dt = 1/60
    medium = _layered_medium(grid)
    _, d = boundary_data(medium, grid, eps, 0.0, 0)
    raw = simulate(medium, grid).values
    i = round((eps + 2.0) / grid.dx)
    front = grid.t_nodes() <= eps + 0.26
    assert front.any() and not front.all()
    assert np.all(d.g0.samples[front] == 0.5) and np.all(d.g1.samples[front] == 0.0)
    assert np.array_equal(d.g0.samples[~front], raw[i, ~front])
    ux = (-3.0 * raw[i] + 4.0 * raw[i + 1] - raw[i + 2]) / (2.0 * grid.dx)
    assert np.array_equal(d.g1.samples[~front], ux[~front])


@pytest.mark.parametrize("eps", [0.1025, 1.995, 2.0, -2.5, 2.5, np.nan], ids=str)
def test_boundary_data_rejects_an_observation_point_off_the_grid(monkeypatch, eps):
    """An observation point between nodes, with fewer than two nodes to its
    right or outside the grid raises OffGridObservation before simulating."""
    monkeypatch.setattr(forward, "simulate", None)
    grid = SpaceTimeGrid(-2.0, 2.0, 2.0, 800, 120)
    with pytest.raises(OffGridObservation, match="observation point"):
        boundary_data(_layered_medium(grid), grid, eps, 0.0, 0)


@pytest.mark.parametrize(
    "piece, message",
    [
        ({"kind": "bump", "center": 0.5, "halfwidth": -0.2, "amplitude": 10.0},
         "piece halfwidth must"),
        # a sampled table is not a medium piece kind, however valid its values
        ({"kind": "table", "x": [0.0, 1.0], "c": [1.0, 2.0]}, "unknown medium piece kind 'table'"),
    ],
    ids=["halfwidth_negative", "table_kind_unknown"],
)
def test_medium_from_pieces_rejects_a_bad_piece(piece, message):
    """A library caller gets the config check's ValueError, naming the key
    or the unknown kind, not a silently wrong medium."""
    grid = SpaceTimeGrid(-5.0, 5.0, 1.0, 100, 10)
    with pytest.raises(ValueError, match=message):
        medium_from_pieces([piece], grid)


def test_add_noise_scale_and_determinism():
    g = Signal(0.0, 0.1, np.ones(100))
    n1 = add_noise(g, 0.05, seed=3)
    n2 = add_noise(g, 0.05, seed=3)
    assert np.array_equal(n1.samples, n2.samples)
    assert np.max(np.abs(n1.samples - g.samples)) <= 0.05 + 1e-12
    assert np.any(n1.samples != g.samples)


def test_tikhonov_differentiate_linear():
    t = np.linspace(0.0, 1.0, 101)
    g = Signal(0.0, 0.01, 3.0 * t + 1.0)
    d = tikhonov_differentiate(g, 1e-8)
    interior = d.samples[5:-5]
    assert np.allclose(interior, 3.0, atol=0.05)


def test_tikhonov_differentiate_smooths_noise():
    rng = np.random.Generator(np.random.Philox(0))
    t = np.linspace(0.0, 1.0, 201)
    clean = np.sin(2 * np.pi * t)
    noisy = clean + 0.01 * rng.standard_normal(t.size)
    d_true = 2 * np.pi * np.cos(2 * np.pi * t)
    d = tikhonov_differentiate(Signal(0.0, t[1] - t[0], noisy), 1e-6)
    err = np.abs(d.samples[20:-20] - d_true[20:-20])
    # max |d_true| is 2*pi; the regularized derivative tracks it closely away
    # from the boundary layers
    assert np.max(err) < 0.2
    # naive finite differencing of the same trace is an order of magnitude worse
    naive = np.gradient(noisy, t)
    assert np.max(np.abs(naive[20:-20] - d_true[20:-20])) > 1.0


def _reference_tikhonov(g, reg):
    """The uncached dense solve of the same normal equations."""
    n, dt = g.samples.size, g.dt
    K = np.zeros((n, n))
    for i in range(1, n):
        K[i, 0] = dt / 2.0
        K[i, 1:i] = dt
        K[i, i] = dt / 2.0
    D = np.zeros((n - 1, n))
    idx = np.arange(n - 1)
    D[idx, idx] = -1.0 / dt
    D[idx, idx + 1] = 1.0 / dt
    lhs = K.T @ K + reg * (D.T @ D)
    return scipy.linalg.solve(lhs, K.T @ (g.samples - g.samples[0]), assume_a="pos")


@pytest.mark.parametrize("n, dt", [(301, FORWARD_GRID.dt), (120, 0.133)])
def test_tikhonov_differentiate_matches_dense_solve(n, dt):
    """The cached Cholesky factor reproduces the dense SPD solve bit for bit,
    on the first call and on a cache hit, and the cached arrays are read-only."""
    rng = np.random.Generator(np.random.Philox(n))
    reg = 1e-4
    hits = forward._tikhonov_system.cache_info().hits
    for _ in range(2):
        g = Signal(0.0, dt, np.cumsum(rng.standard_normal(n)))
        d = tikhonov_differentiate(g, reg)
        assert np.array_equal(d.samples, _reference_tikhonov(g, reg))
    assert forward._tikhonov_system.cache_info().hits > hits
    K, (factor, _lower) = forward._tikhonov_system(n, dt, reg)
    for cached in (K, factor):
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0
