"""Forward wave simulation and boundary-data synthesis.

Solves c(x) u_tt = u_xx on [-a, a] x [0, T] with first-order absorbing ends
(u_t -/+ u_x = 0) and a smoothed-Dirac initial velocity, by an implicit
finite-difference scheme (``simulate``).
``boundary_data`` turns one solve into the measured pair (g0, g1) at the
observation point: trace reading, near-front correction and multiplicative
noise. Also provides the regularized differentiation of noisy traces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import InvalidInput, OffGridObservation, SingularSystem
from .grid import ONE_SIDED_D1, Field2D, Signal, SpaceTimeGrid, cumulative_trapezoid


@dataclass
class MediumProfile:
    """A sampled dielectric profile c(x) on a uniform spatial partition.

    x must be strictly increasing, and c positive and finite at every node;
    ``sample`` extends it by the background value 1 outside the sampled
    interval.
    """

    x: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        if self.x.shape != self.c.shape:
            raise ValueError("x and c must have the same shape")
        if bad := np.flatnonzero(~(np.diff(self.x) > 0)).tolist():
            k = bad[0]
            raise ValueError(f"x must be strictly increasing, but [x[{k}], x[{k + 1}]] is "
                             f"[{self.x[k]:.6g}, {self.x[k + 1]:.6g}]")
        if np.any(self.c <= 0) or not np.all(np.isfinite(self.c)):
            raise ValueError("c must be positive and finite")

    def sample(self, x_query: np.ndarray) -> np.ndarray:
        """Linear interpolation, extended by the background value 1 outside."""
        return np.interp(x_query, self.x, self.c, left=1.0, right=1.0)


# The forward discretization of every fixture and of ``convexiwave forward``:
# [-5, 5] x [0, 6] with 3000 x 300 intervals. The fixtures, their bands and the
# ``synth_c`` constants are defined by this discretization, not by the PDE: it
# runs ``simulate`` at Courant number dt/dx = 6, and g0 - INCIDENT_LEVEL is off
# by 5 % (test1) and 14 % (test3) from a converged solve.
FORWARD_GRID = SpaceTimeGrid(-5.0, 5.0, 6.0, 3000, 300)

# The k of the smoothed-Dirac source that every simulation launches at x = 0: its width is 1/k.
SOURCE_K = 30.0


def initial_velocity(x: np.ndarray) -> np.ndarray:
    """The smoothed Dirac (k/sqrt(2*pi)) * exp(-(k*x)^2 / 2) with k = ``SOURCE_K``."""
    return SOURCE_K / np.sqrt(2.0 * np.pi) * np.exp(-((SOURCE_K * x) ** 2) / 2.0)


# u behind the unit source's front in the background c = 1: the null scatterer's q.
INCIDENT_LEVEL = 0.5

# How long after the incident front reaches the observation point x = eps
# (at t = eps, in c = 1) ``boundary_data`` replaces its traces by the incident
# wave's values (see there).
FRONT_WINDOW = 0.26


# Where ``simulate`` cuts off an end correction, relative to its peak (see there).
SUPPORT_TOL = 1e-30


def _support(z: np.ndarray) -> int:
    """Length of the leading stretch of ``z`` past which |z| <= SUPPORT_TOL * max |z|."""
    big = np.abs(z) > SUPPORT_TOL * np.max(np.abs(z))
    return z.size - int(np.argmax(big[::-1]))


def simulate(c: MediumProfile, grid: SpaceTimeGrid) -> Field2D:
    """Implicit finite-difference solution of the absorbing-ends wave problem.

    This discretization, not the PDE, defines the simulated fixtures; the
    comment on ``FORWARD_GRID`` states its error there.

    Time-centered implicit scheme: the Laplacian is averaged over the new and
    old time levels around the standard three-level u_tt difference, which is
    unconditionally stable and non-dissipative, so the wavefront stays sharp
    at the large time steps the data generation uses. The first step is
    bootstrapped from the Taylor expansion at t=0 (u(.,0)=0, so
    u^1 = dt * ``initial_velocity``).

    Each step is one LAPACK ``dpttrs`` solve with the L D L^T factors of the
    interior block, which ``dpttrf`` computes once, plus vector updates: the
    two absorbing ends are eliminated through a 2x2 system inverted once.
    The result equals the sparse-LU solve of the full step matrix up to
    roundoff (max |du| about 2e-11 on the fixture media). A failed
    factorization raises SingularSystem.

    The end corrections are multiples of z1 and z2, the interior block's response
    to each end, which decay geometrically away from their end (by about
    0.79 per node on the fixtures' grid). Each is applied only on the
    leading or trailing entries where |z| exceeds ``SUPPORT_TOL`` = 1e-30 of
    its peak: 294 of 2,999 on ``FORWARD_GRID``. A cut term
    changes no sum on these grids: on the ten fixture media, over every step
    and cut entry, it is at most 4e-30 of the value it would be added to,
    and a double changes only when a term exceeds about 2**-54 = 5.6e-17 of
    it. So the field equals, bit for bit, the one from full-length updates.

    The solution is stored time-major, one contiguous row per time level, so
    each step reads and writes whole rows. The returned values are the
    transposed (x, t) view of that buffer, not a copy; wrapping them in a
    ``Field2D`` is the one finiteness check, and a non-finite step raises
    SingularSystem.
    """
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
    # Absorbing rows u_t -/+ u_x = 0 at the ends, all at the new level: both
    # derivatives are ``ONE_SIDED_D1`` with a reversed step, back in time and
    # outward in space. Substituting u_I^(n+1) leaves S (u_0, u_nx)^(n+1) = g,
    # where g = b (u_0, u_nx)^n - M (u_0, u_nx)^(n-1) - (the edge stencils of w).
    back = -np.array(ONE_SIDED_D1)
    edge = back / (2 * dx)
    edge[0] += back[0] / (2 * dt)
    lo, hi = [0, 1, 2], [nx, nx - 1, nx - 2]
    try:
        S_inv = np.linalg.inv(np.stack([edge @ B[lo], edge @ B[hi]]))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"implicit wave step matrix is singular: {exc}") from exc
    s00, s01, s10, s11 = S_inv.ravel().tolist()
    M = np.stack([edge @ P[lo], edge @ P[hi]]) + np.eye(2) * (back[2] / (2 * dt))
    m00, m01, m10, m11 = M.ravel().tolist()
    _, a1, a2 = edge.tolist()
    b = float(-back[1] / (2 * dt))
    c2 = 2.0 * cv[1:nx]

    # The end corrections act on their supports only: a leading stretch of
    # z1 and a trailing stretch of z2.
    head = _support(z1)
    tail = _support(z2[::-1])
    z1, z2 = z1[:head], z2[nx - 1 - tail :]

    U = np.zeros((nt + 1, nx + 1))
    U[1] = dt * initial_velocity(x)
    U[1, 0] = U[1, nx] = 0.0
    inner, lead, trail = U[:, 1:nx], U[:, 1 : 1 + head], U[:, nx - tail : nx]
    # The ends of levels n - 1 (p0, pn) and n (c0, cn), carried as floats
    # equal to what is stored in U.
    p0 = pn = c0 = cn = 0.0
    # A step that goes non-finite is reported by the one check below, not by
    # numpy warnings from the steps after it.
    with np.errstate(invalid="ignore", over="ignore"):
        for n in range(1, nt):
            w = inner[n + 1]
            np.multiply(c2, inner[n], out=w)
            dpttrs(d, e, w, overwrite_b=1)  # w is a contiguous float64 row: solved in place
            w -= inner[n - 1]
            # Row n + 1 holds w, and its ends are still zero, so the edge
            # stencils read w alone, also when nx = 2.
            w1, w2 = U.item(n + 1, 1), U.item(n + 1, 2)
            wn1, wn2 = U.item(n + 1, nx - 1), U.item(n + 1, nx - 2)
            g0 = b * c0 - a1 * w1 - a2 * w2 - p0 * m00 - pn * m01
            gn = b * cn - a1 * wn1 - a2 * wn2 - p0 * m10 - pn * m11
            u0 = s00 * g0 + s01 * gn
            un = s10 * g0 + s11 * gn
            lead[n + 1] += (p0 + u0) * z1
            trail[n + 1] += (pn + un) * z2
            U[n + 1, 0], U[n + 1, nx] = u0, un
            p0, pn, c0, cn = c0, cn, u0, un
    try:
        return Field2D(grid, U.T)
    except ValueError as exc:
        raise SingularSystem("implicit wave step produced non-finite values") from exc


@dataclass
class BoundaryData:
    """Traces g0 = u and g1 = u_x recorded at the observation point x = eps, t
    counted from the source's launch; the inversion reads them at t + eps, where
    eps is its grid's start (``transform``). Simulated traces are recorded there
    by ``boundary_data``. Preprocessed field traces come from the antenna at
    x = 0, so they support eps = 0 only."""

    g0: Signal
    g1: Signal

    def __post_init__(self):
        if abs(self.g0.t0 - self.g1.t0) > 1e-12 or abs(self.g0.dt - self.g1.dt) > 1e-12:
            raise InvalidInput("g0 and g1 must share t-sampling")
        if self.g0.samples.size != self.g1.samples.size:
            raise InvalidInput("g0 and g1 must have the same length")


def boundary_data(
    c: MediumProfile,
    grid: SpaceTimeGrid,
    eps: float,
    delta: float,
    seed: int,
) -> tuple[Field2D, BoundaryData]:
    """Simulate c and read the boundary data at the observation point x = eps
    over the whole record.

    g0 is u(eps, t) and g1 the ``ONE_SIDED_D1`` u_x(eps, t) of the
    ``simulate`` field. For t <= eps + ``FRONT_WINDOW`` they are replaced by
    the incident wave's values behind its front, g0 = ``INCIDENT_LEVEL`` and
    g1 = 0, which removes the smoothed source's dip; like
    ``transform.boundary_traces_from_data``, this takes c = 1 on [0, eps].
    With delta > 0, ``add_noise`` then perturbs g0 with ``seed`` and g1 with
    ``seed + 1``; it rejects a negative delta. Returns the simulated field,
    untouched, and the data. Raises OffGridObservation, before simulating,
    unless x = eps is a node with two nodes to its right.
    """
    x = grid.x_nodes()
    i = round((eps - grid.x_min) / grid.dx) if np.isfinite(eps) else -1
    if not 0 <= i <= grid.nx - 2 or abs(x[i] - eps) > 1e-9 * max(1.0, grid.dx):
        raise OffGridObservation(
            f"the observation point x = {eps} is not a node with two nodes to its "
            f"right on the grid [{grid.x_min}, {grid.x_max}] with nx = {grid.nx}"
        )
    u = simulate(c, grid)
    v = u.values
    k0, k1, k2 = ONE_SIDED_D1
    g0 = v[i].copy()
    g1 = (k0 * v[i] + k1 * v[i + 1] + k2 * v[i + 2]) / (2.0 * grid.dx)
    front = grid.t_nodes() <= eps + FRONT_WINDOW
    g0[front] = INCIDENT_LEVEL
    g1[front] = 0.0
    g0, g1 = Signal(0.0, grid.dt, g0), Signal(0.0, grid.dt, g1)
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
    once per (n, dt, reg), cached read-only, and reused by later calls. The
    trace and the factor are finite, so a non-finite derivative can only come
    from overflow: it raises InvalidInput.
    """
    if reg <= 0:
        raise ValueError("reg must be positive")
    K, factor = _tikhonov_system(g.samples.size, g.dt, reg)
    y = g.samples - g.samples[0]
    d = scipy.linalg.cho_solve(factor, K.T @ y)
    if not np.all(np.isfinite(d)):
        raise InvalidInput("the regularized derivative of the trace overflows")
    return Signal(g.t0, g.dt, d)
