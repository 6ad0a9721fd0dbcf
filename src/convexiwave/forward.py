"""Forward wave simulation and boundary-data synthesis.

Solves c(x) u_tt = u_xx on [-a, a] x [0, T] with first-order absorbing ends
(u_t -/+ u_x = 0) and a smoothed-Dirac initial velocity, by an implicit
finite-difference scheme (one sparse solve per time step). ``boundary_data``
turns one solve into the measured pair (g0, g1) at x = 0: near-origin
correction, trace reading and multiplicative noise. Also provides the
regularized differentiation of noisy traces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InvalidInput, OffGridObservation, SingularSystem
from .grid import Field2D, Signal, SpaceTimeGrid


@dataclass
class MediumProfile:
    """A sampled dielectric profile c(x) on a uniform spatial partition.

    c must be positive and finite at every node; ``sample`` extends it by the
    background value 1 outside the sampled interval.
    """

    x: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        if self.x.shape != self.c.shape:
            raise ValueError("x and c must have the same shape")
        if np.any(self.c <= 0) or not np.all(np.isfinite(self.c)):
            raise ValueError("c must be positive and finite")

    def sample(self, x_query: np.ndarray) -> np.ndarray:
        """Linear interpolation, extended by the background value 1 outside."""
        return np.interp(x_query, self.x, self.c, left=1.0, right=1.0)


@dataclass
class SourceModel:
    """Smoothed Dirac initial velocity (k/sqrt(2*pi)) * exp(-(k*x)^2 / 2)."""

    k: float = 30.0

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("k must be positive")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self.k / np.sqrt(2.0 * np.pi) * np.exp(-((self.k * x) ** 2) / 2.0)


@dataclass
class CorrectionBox:
    """Region [0, x_hi] x [0, t_hi] on which the wave is reassigned to 1/2."""

    x_hi: float = 0.0067
    t_hi: float = 0.26

    def __post_init__(self):
        if self.x_hi < 0 or self.t_hi < 0:
            raise ValueError("box bounds must be nonnegative")


def simulate(c: MediumProfile, grid: SpaceTimeGrid, src: SourceModel | None = None) -> Field2D:
    """Implicit finite-difference solution of the absorbing-ends wave problem.

    This discretization, not the PDE, defines the simulated fixtures. On
    ``fixtures.DEFAULT_FORWARD_GRID`` it runs at Courant number dt/dx = 6,
    and the scattered part g0 - 1/2 of its boundary data is off by 5 %
    (``test1``) and 14 % (``test3``) in relative L2 from a converged solve.

    Time-centered implicit scheme: the Laplacian is averaged over the new and
    old time levels around the standard three-level u_tt difference, which is
    unconditionally stable and non-dissipative, so the wavefront stays sharp
    at the large time steps the data generation uses. Each step is one
    factorized sparse solve. The first step is bootstrapped from the Taylor
    expansion at t=0 (u(.,0)=0, so u^1 = dt * source).

    The solution is stored time-major, one contiguous row per time level, so
    each step reads and writes whole rows. The returned values are the
    transposed (x, t) view of that buffer, not a copy; wrapping them in a
    ``Field2D`` is the one finiteness check, and a non-finite step raises
    SingularSystem.
    """
    if src is None:
        src = SourceModel()
    x = grid.x_nodes()
    nx, nt = grid.nx, grid.nt
    dx, dt = grid.dx, grid.dt
    cv = c.sample(x)
    r = 0.5 * dt * dt / (dx * dx)

    i = np.arange(1, nx)
    off = np.full(nx - 1, -r)
    # Absorbing rows u_t -/+ u_x = 0 at the ends: second-order backward time
    # difference and second-order one-sided space derivative, all at the new
    # level so the system stays tridiagonal-banded.
    edge = [3.0 / (2 * dt) + 3.0 / (2 * dx), -4.0 / (2 * dx), 1.0 / (2 * dx)]
    rows = np.concatenate([np.repeat(i, 3), [0, 0, 0, nx, nx, nx]])
    cols = np.concatenate(
        [np.stack([i - 1, i, i + 1], axis=1).ravel(), [0, 1, 2, nx, nx - 1, nx - 2]]
    )
    vals = np.concatenate([np.stack([off, cv[1:nx] + 2.0 * r, off], axis=1).ravel(), edge, edge])
    A = sp.csc_matrix((vals, (rows, cols)), shape=(nx + 1, nx + 1))
    try:
        lu = spla.splu(A)
    except RuntimeError as exc:
        raise SingularSystem(f"implicit wave step matrix is singular: {exc}") from exc

    U = np.zeros((nt + 1, nx + 1))
    U[1] = dt * src.evaluate(x)
    U[1, 0] = U[1, nx] = 0.0
    rhs = np.zeros(nx + 1)
    for n in range(1, nt):
        cur, prev = U[n], U[n - 1]
        rhs[1:nx] = cv[1:nx] * (2.0 * cur[1:nx] - prev[1:nx]) + r * (
            prev[0 : nx - 1] - 2.0 * prev[1:nx] + prev[2 : nx + 1]
        )
        rhs[0] = (4.0 * cur[0] - prev[0]) / (2 * dt)
        rhs[nx] = (4.0 * cur[nx] - prev[nx]) / (2 * dt)
        U[n + 1] = lu.solve(rhs)
    try:
        return Field2D(grid, U.T)
    except ValueError as exc:
        raise SingularSystem("implicit wave step produced non-finite values") from exc


@dataclass
class BoundaryData:
    """The measured pair (g0, g1) at the observation point, covering [0, T+eps]."""

    g0: Signal
    g1: Signal
    eps: float = 0.0

    def __post_init__(self):
        if abs(self.g0.t0 - self.g1.t0) > 1e-12 or abs(self.g0.dt - self.g1.dt) > 1e-12:
            raise InvalidInput("g0 and g1 must share t-sampling")
        if self.g0.samples.size != self.g1.samples.size:
            raise InvalidInput("g0 and g1 must have the same length")
        if self.eps < 0:
            raise InvalidInput("eps must be nonnegative")


def boundary_data(
    c: MediumProfile,
    grid: SpaceTimeGrid,
    src: SourceModel,
    box: CorrectionBox,
    delta: float = 0.0,
    seed: int = 0,
) -> tuple[Field2D, BoundaryData]:
    """Simulate c and read the boundary data at x = 0 over the whole record.

    Runs ``simulate``, then reassigns u = 1/2 on the ``box`` region
    [0, x_hi] x [0, t_hi] of that field in place, which removes the
    smoothed-source dip. g0 is u(0, t) and g1 the second-order one-sided
    u_x(0, t). With delta > 0, ``add_noise`` perturbs g0 with ``seed`` and
    g1 with ``seed + 1``; it rejects a negative delta. Returns the corrected
    field and the data. Raises OffGridObservation, before simulating, unless
    x = 0 is a node with two nodes to its right.
    """
    x = grid.x_nodes()
    i = round(-grid.x_min / grid.dx)
    if not 0 <= i <= grid.nx - 2 or abs(x[i]) > 1e-9 * max(1.0, grid.dx):
        raise OffGridObservation(
            f"x = 0 is not a node with two nodes to its right on the grid "
            f"[{grid.x_min}, {grid.x_max}] with nx = {grid.nx}"
        )
    u = simulate(c, grid, src)
    u.values[np.ix_((x >= 0.0) & (x <= box.x_hi), grid.t_nodes() <= box.t_hi)] = 0.5
    v = u.values
    g0 = Signal(0.0, grid.dt, v[i].copy())
    g1 = Signal(0.0, grid.dt, (-3.0 * v[i] + 4.0 * v[i + 1] - v[i + 2]) / (2.0 * grid.dx))
    if delta:
        g0, g1 = add_noise(g0, delta, seed), add_noise(g1, delta, seed + 1)
    return u, BoundaryData(g0, g1)


def add_noise(g: Signal, delta: float, seed: int) -> Signal:
    """Multiplicative uniform noise g * (1 + delta * r), r ~ U[-1, 1], seeded."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    rng = np.random.Generator(np.random.Philox(seed))
    r = rng.uniform(-1.0, 1.0, size=g.samples.size)
    return Signal(g.t0, g.dt, g.samples * (1.0 + delta * r))


@functools.lru_cache(maxsize=8)
def _tikhonov_system(n: int, dt: float, reg: float):
    """K and the Cholesky factor of K^T K + reg * D^T D for one (n, dt, reg).

    Cached and shared by every caller, so the arrays are read-only.
    """
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
    try:
        factor = scipy.linalg.cho_factor(lhs)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem(f"regularized differentiation solve failed: {exc}") from exc
    K.flags.writeable = False
    factor[0].flags.writeable = False
    return K, factor


def tikhonov_differentiate(g: Signal, reg: float) -> Signal:
    """Stable derivative of a noisy trace.

    Returns the minimizer d of ||K d - (g - g(t0))||^2 + reg * ||d'||^2 where
    K is cumulative trapezoidal integration from t0. The normal matrix is
    symmetric positive-definite; K and its upper Cholesky factor are built
    once per (n, dt, reg), cached read-only, and reused by later calls.
    """
    if reg <= 0:
        raise ValueError("reg must be positive")
    K, factor = _tikhonov_system(g.samples.size, g.dt, reg)
    y = g.samples - g.samples[0]
    d = scipy.linalg.cho_solve(factor, K.T @ y)
    if not np.all(np.isfinite(d)):
        raise SingularSystem("regularized differentiation produced non-finite values")
    return Signal(g.t0, g.dt, d)
