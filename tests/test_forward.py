"""Forward wave simulation: detector-level facts, accuracy, and errors."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cached_data import cached_boundary_data, null_boundary_data
from convexiwave import forward
from convexiwave.errors import OffGridObservation, SingularSystem
from convexiwave.fixtures import DEFAULT_FORWARD_GRID, medium_from_pieces
from convexiwave.forward import (
    BoundaryData,
    CorrectionBox,
    MediumProfile,
    SourceModel,
    add_noise,
    boundary_data,
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


def _reference_simulate(c, grid, src):
    """The column-major stepper: u[:, n] is time level n, the step matrix is
    assembled from a Python triplet loop and every step is checked."""
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
    u[:, 1] = dt * src.evaluate(x)
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


def test_simulate_is_bit_identical_to_column_major_stepper():
    """Time-major stepping and the vectorized step matrix change no bit of u."""
    grid = SpaceTimeGrid(-2.0, 2.0, 2.0, 800, 120)
    medium = _layered_medium(grid)
    u = simulate(medium, grid, SourceModel())
    assert u.values.shape == grid.shape
    assert np.array_equal(u.values, _reference_simulate(medium, grid, SourceModel()))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_simulate_raises_singular_system_on_non_finite_step(monkeypatch, bad):
    """A step that goes non-finite is caught by the one finiteness check, the
    ``Field2D`` construction of the result."""
    real_splu = spla.splu

    class _BadFactor:
        def __init__(self, lu):
            self.lu = lu
            self.calls = 0

        def solve(self, rhs):
            self.calls += 1
            out = self.lu.solve(rhs)
            if self.calls == 5:
                out[len(out) // 2] = bad
            return out

    monkeypatch.setattr(forward.spla, "splu", lambda A: _BadFactor(real_splu(A)))
    grid = SpaceTimeGrid(-1.0, 1.0, 1.0, 60, 30)
    with pytest.raises(SingularSystem, match="non-finite"):
        simulate(_layered_medium(grid), grid, SourceModel())


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
    u = simulate(medium, grid, SourceModel())
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
    u, _ = boundary_data(medium, grid, SourceModel(), CorrectionBox())
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
    u = simulate(medium, grid, SourceModel())
    x = grid.x_nodes()
    t = grid.t_nodes()
    X, T = np.meshgrid(x, t, indexing="ij")
    outside = T < np.abs(X) - 0.1
    assert np.max(np.abs(u.values[outside])) < 0.02


def test_reflection_present_for_inclusion():
    d = cached_boundary_data("test1")
    assert np.max(np.abs(d.g0.samples - 0.5)) > 0.05


def _reference_boundary_data(c, grid, src, box, delta, seed):
    """The chain that ``boundary_data`` replaces: copy the simulated field,
    set the box to 1/2 on the copy, read g0 and the one-sided g1 at x = 0,
    then add the noise pair."""
    u = simulate(c, grid, src)
    out = u.values.copy(order="K")
    x = grid.x_nodes()
    t = grid.t_nodes()
    out[np.ix_((x >= 0.0) & (x <= box.x_hi), t <= box.t_hi)] = 0.5
    i = int(round((0.0 - grid.x_min) / grid.dx))
    m = min(int(round(grid.t_max / grid.dt)), grid.nt)
    ux = (-3.0 * out[i] + 4.0 * out[i + 1] - out[i + 2]) / (2.0 * grid.dx)
    g0 = Signal(0.0, grid.dt, out[i, : m + 1].copy())
    g1 = Signal(0.0, grid.dt, ux[: m + 1].copy())
    if delta > 0:
        g0 = add_noise(g0, delta, seed)
        g1 = add_noise(g1, delta, seed + 1)
    return out, BoundaryData(g0=g0, g1=g1, eps=0.0)


@pytest.mark.parametrize("delta", [0.0, 0.05])
def test_boundary_data_matches_reference_chain(delta):
    """Correcting in place and reading the traces once changes no bit of u,
    g0 or g1, without noise and with it."""
    grid = SpaceTimeGrid(-2.0, 2.0, 2.0, 800, 120)
    medium = _layered_medium(grid)
    args = (medium, grid, SourceModel(), CorrectionBox(0.05, 0.3), delta, 7)
    u, d = boundary_data(*args)
    u_ref, d_ref = _reference_boundary_data(*args)
    assert np.array_equal(u.values, u_ref)
    assert np.array_equal(d.g0.samples, d_ref.g0.samples)
    assert np.array_equal(d.g1.samples, d_ref.g1.samples)
    assert (d.g0.dt, d.g1.dt, d.eps) == (d_ref.g0.dt, d_ref.g1.dt, d_ref.eps)


def test_correct_near_origin_box():
    """``boundary_data`` sets exactly the box [0, x_hi] x [0, t_hi] to 1/2
    and leaves the rest of the simulated field untouched."""
    grid = SpaceTimeGrid(-1.0, 1.0, 1.0, 100, 100)
    medium = _constant_medium(1.0, grid)
    raw = simulate(medium, grid, SourceModel())
    u, d = boundary_data(medium, grid, SourceModel(), CorrectionBox(0.105, 0.205))
    inside = np.zeros(grid.shape, dtype=bool)
    inside[50:56, :21] = True  # x = 0, 0.02, ..., 0.1 and t = 0, 0.01, ..., 0.2
    assert np.all(u.values[inside] == 0.5)
    assert np.array_equal(u.values[~inside], raw.values[~inside])
    assert np.array_equal(d.g0.samples, u.values[50])


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
            boundary_data(_constant_medium(1.0, grid), grid, SourceModel(), CorrectionBox())
    grid = SpaceTimeGrid(-1.0, 1.0, 1.0, 4, 20)  # x = 0 is node 2 of 4: just enough
    _, d = boundary_data(_constant_medium(1.0, grid), grid, SourceModel(), CorrectionBox())
    assert d.g0.samples.size == d.g1.samples.size == 21


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


@pytest.mark.parametrize("n, dt", [(301, DEFAULT_FORWARD_GRID.dt), (120, 0.133)])
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
