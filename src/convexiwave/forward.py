"""Forward wave simulation and boundary-data synthesis.

Solves c(x) u_tt = u_xx on [-a, a] x [0, T] with first-order absorbing ends
(u_t -/+ u_x = 0) and a smoothed-Dirac initial velocity, by an implicit
finite-difference scheme (one sparse solve per time step). Also provides the
near-origin data correction, boundary-trace extraction, multiplicative noise
injection, and regularized differentiation of noisy traces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import HorizonTooShort, OffGridObservation, SingularSystem
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


def correct_near_origin(u: Field2D, box: CorrectionBox) -> Field2D:
    """Reassign u = 1/2 on [0, x_hi] x [0, t_hi] to remove the smoothed-source dip."""
    out = u.copy()
    x = u.grid.x_nodes()
    t = u.grid.t_nodes()
    xm = (x >= 0.0) & (x <= box.x_hi)
    tm = t <= box.t_hi
    out.values[np.ix_(xm, tm)] = 0.5
    return out


def extract_boundary(u: Field2D, x_obs: float, horizon: float):
    """Read (g0, g1) at a grid node: the field trace and its one-sided x-derivative."""
    from .transform import BoundaryData

    g = u.grid
    x = g.x_nodes()
    i = int(round((x_obs - g.x_min) / g.dx))
    if i < 0 or i > g.nx or abs(x[i] - x_obs) > 1e-9 * max(1.0, g.dx):
        raise OffGridObservation(f"x_obs={x_obs} is not a node of the grid")
    if horizon > g.t_max + 1e-12:
        raise HorizonTooShort(f"horizon {horizon} exceeds simulated t_max {g.t_max}")
    m = int(round(horizon / g.dt))
    m = min(m, g.nt)
    if i + 2 > g.nx:
        raise OffGridObservation(f"x_obs={x_obs} too close to the right edge for the one-sided stencil")
    v = u.values
    ux = (-3.0 * v[i] + 4.0 * v[i + 1] - v[i + 2]) / (2.0 * g.dx)
    g0 = Signal(0.0, g.dt, u.values[i, : m + 1].copy())
    g1 = Signal(0.0, g.dt, ux[: m + 1].copy())
    return BoundaryData(g0=g0, g1=g1, eps=max(x_obs, 0.0))


def add_noise(g: Signal, delta: float, seed: int) -> Signal:
    """Multiplicative uniform noise g * (1 + delta * r), r ~ U[-1, 1], seeded."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if delta == 0:
        return g.copy()
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
