"""Forward wave simulation and boundary-data synthesis.

Solves c(x) u_tt = u_xx on [-a, a] x [0, T] with first-order absorbing ends
(u_t -/+ u_x = 0) and a smoothed-Dirac initial velocity, by an implicit
finite-difference scheme. Each time step is one solve with a tridiagonal
factorization made once, plus a 2x2 solve for the two absorbing ends; the
result equals a sparse-LU solve of the full step matrix up to roundoff.
``boundary_data`` turns one solve into the measured pair (g0, g1) at x = 0:
near-origin correction, trace reading and multiplicative noise. Also
provides the regularized differentiation of noisy traces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import InvalidInput, OffGridObservation, SingularSystem
from .grid import Field2D, Signal, SpaceTimeGrid, cumulative_trapezoid


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
        if not 0 < self.k < np.inf:
            raise ValueError("k must be positive and finite")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self.k / np.sqrt(2.0 * np.pi) * np.exp(-((self.k * x) ** 2) / 2.0)


@dataclass
class CorrectionBox:
    """Region [0, x_hi] x [0, t_hi] on which the wave is reassigned to 1/2."""

    x_hi: float = 0.0067
    t_hi: float = 0.26

    def __post_init__(self):
        if not (0 <= self.x_hi < np.inf and 0 <= self.t_hi < np.inf):
            raise ValueError("box bounds must be nonnegative and finite")


def simulate(c: MediumProfile, grid: SpaceTimeGrid, src: SourceModel | None = None) -> Field2D:
    """Implicit finite-difference solution of the absorbing-ends wave problem.

    This discretization, not the PDE, defines the simulated fixtures. On
    ``fixtures.DEFAULT_FORWARD_GRID`` it runs at Courant number dt/dx = 6,
    and the scattered part g0 - 1/2 of its boundary data is off by 5 %
    (``test1``) and 14 % (``test3``) in relative L2 from a converged solve.

    Time-centered implicit scheme: the Laplacian is averaged over the new and
    old time levels around the standard three-level u_tt difference, which is
    unconditionally stable and non-dissipative, so the wavefront stays sharp
    at the large time steps the data generation uses. The first step is
    bootstrapped from the Taylor expansion at t=0 (u(.,0)=0, so
    u^1 = dt * source).

    Each step is one LAPACK ``dpttrs`` solve with the L D L^T factors of the
    interior block, which ``dpttrf`` computes once, plus vector updates: the
    two absorbing ends are eliminated through a 2x2 system inverted once.
    The result equals the sparse-LU solve of the full step matrix up to
    roundoff (max |du| about 2e-11 on the fixture media). A failed
    factorization raises SingularSystem.

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

    # Interior block T = diag(c_i + 2r) - r (off-diagonals) of the step
    # matrix: symmetric positive-definite, factored once as L D L^T. The
    # wrapper wants a length-1 off-diagonal even for the 1x1 block of nx = 2.
    d, e, info = dpttrf(cv[1:nx] + 2.0 * r, np.full(max(nx - 2, 1), -r))
    if info != 0:
        raise SingularSystem(f"implicit wave step matrix is singular: dpttrf info = {info}")
    # The interior rows reach the ends only through -r u_0 and -r u_nx, so
    # u_I^(n+1) = w + (u_0^(n-1) + u_0^(n+1)) z1 + (u_nx^(n-1) + u_nx^(n+1)) z2
    # with z1, z2 = T^-1 (r e_1), T^-1 (r e_m) and w = 2 T^-1 (c u_I^n) - u_I^(n-1),
    # since rhs_I = 2 c u_I^n - T u_I^(n-1) + r (u_0^(n-1) e_1 + u_nx^(n-1) e_m).
    # P holds [z1, z2] zero-padded to full rows, and B adds the ends themselves.
    P = np.zeros((nx + 1, 2))
    P[1, 0] = P[nx - 1, 1] = r
    P[1:nx], _ = dpttrs(d, e, P[1:nx])
    z1, z2 = P[1:nx, 0].copy(), P[1:nx, 1].copy()
    B = P.copy()
    B[0, 0] = B[nx, 1] = 1.0
    # Absorbing rows u_t -/+ u_x = 0 at the ends: second-order backward time
    # difference and second-order one-sided space derivative, all at the new
    # level. Substituting u_I^(n+1) leaves S (u_0, u_nx)^(n+1) = g, where
    # g = (2/dt) (u_0, u_nx)^n - M (u_0, u_nx)^(n-1) - (the edge stencils of w).
    edge = np.array([3.0 / (2 * dt) + 3.0 / (2 * dx), -4.0 / (2 * dx), 1.0 / (2 * dx)])
    lo, hi = [0, 1, 2], [nx, nx - 1, nx - 2]
    try:
        S_inv = np.linalg.inv(np.stack([edge @ B[lo], edge @ B[hi]]))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"implicit wave step matrix is singular: {exc}") from exc
    s00, s01, s10, s11 = S_inv.ravel().tolist()
    M = np.stack([edge @ P[lo], edge @ P[hi]]) + np.eye(2) / (2 * dt)
    m00, m01, m10, m11 = M.ravel().tolist()
    _, a1, a2 = edge.tolist()
    b = 2.0 / dt
    c2 = 2.0 * cv[1:nx]

    U = np.zeros((nt + 1, nx + 1))
    U[1] = dt * src.evaluate(x)
    U[1, 0] = U[1, nx] = 0.0
    # A step that goes non-finite is reported by the one check below, not by
    # numpy warnings from the steps after it.
    with np.errstate(invalid="ignore", over="ignore"):
        for n in range(1, nt):
            cur, prev, nxt = U[n], U[n - 1], U[n + 1]
            np.multiply(c2, cur[1:nx], out=nxt[1:nx])
            nxt[1:nx], _ = dpttrs(d, e, nxt[1:nx], overwrite_b=1)
            nxt[1:nx] -= prev[1:nx]
            p0, pn = prev[0], prev[nx]
            # nxt holds w, and its ends are still zero, so the edge stencils
            # read w alone, also when nx = 2.
            g0 = b * cur[0] - a1 * nxt[1] - a2 * nxt[2] - p0 * m00 - pn * m01
            gn = b * cur[nx] - a1 * nxt[nx - 1] - a2 * nxt[nx - 2] - p0 * m10 - pn * m11
            u0 = s00 * g0 + s01 * gn
            un = s10 * g0 + s11 * gn
            nxt[1:nx] += (p0 + u0) * z1
            nxt[1:nx] += (pn + un) * z2
            nxt[0], nxt[nx] = u0, un
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

    K is ``cumulative_trapezoid`` applied to the identity, and D the forward
    difference. Cached and shared by every caller, so the arrays are read-only.
    """
    K = cumulative_trapezoid(np.eye(n), dt)
    D = np.diff(np.eye(n), axis=0) / dt
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
