"""Uniform space-time grids, sampled fields, and the discrete-operator layer.

This module owns every finite-difference stencil and quadrature rule that the
inversion uses: second-order central differences with second-order one-sided
closures at the boundaries, assembled once per grid as sparse matrices in
``DiscreteOperators``; tensor-product and cumulative trapezoidal quadrature;
and the discrete H2 norm built from both. The residual (``transform``), the
objective (``convexify``) and the quasi-reversibility solves (``solver``) all
read their operators from ``operators_for``. CSV serialization of fields and
signals lives here too.
"""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InvalidInput


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform discretization of [x_min, x_max] x [0, t_max].

    ``nx`` and ``nt`` count intervals; node (i, j) sits at
    (x_min + i*dx, j*dt).
    """

    x_min: float
    x_max: float
    t_max: float
    nx: int
    nt: int

    def __post_init__(self):
        if self.nx < 2 or self.nt < 2:
            raise ValueError("need nx >= 2 and nt >= 2")
        if not (self.x_max > self.x_min):
            raise ValueError("x_max must exceed x_min")
        if not (self.t_max > 0):
            raise ValueError("t_max must be positive")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def dt(self) -> float:
        return self.t_max / self.nt

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx + 1, self.nt + 1)

    def x_nodes(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.nx + 1)

    def t_nodes(self) -> np.ndarray:
        return self.dt * np.arange(self.nt + 1)


@dataclass
class Field2D:
    """A real scalar field sampled on a SpaceTimeGrid, values[i, j] = f(x_i, t_j)."""

    grid: SpaceTimeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")


@dataclass
class Signal:
    """A uniformly sampled scalar time series starting at t0."""

    t0: float
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if not np.isfinite(self.t0):
            raise ValueError("t0 must be finite")
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if self.samples.size == 0:
            raise ValueError("samples must be non-empty")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("signal contains non-finite values")

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.samples.size)

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * (self.samples.size - 1)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n + 1, h)
    w[0] = w[-1] = h / 2.0
    return w


def quad_weights(grid: SpaceTimeGrid) -> np.ndarray:
    """Tensor-product trapezoidal weights, shape (nx+1, nt+1)."""
    wx = trapezoid_weights(grid.nx, grid.dx)
    wt = trapezoid_weights(grid.nt, grid.dt)
    return wx[:, None] * wt[None, :]


def cumulative_trapezoid(y: np.ndarray, d) -> np.ndarray:
    """Running trapezoidal integral of ``y`` along axis 0, starting from 0.

    ``d`` is a scalar spacing or the interval widths, broadcast against
    ``y[1:]``. The expression is scipy's, so results match it bit for bit.
    """
    steps = np.cumsum(d * (y[1:] + y[:-1]) / 2.0, axis=0)
    return np.concatenate([np.zeros_like(steps[:1]), steps])


# ---------------------------------------------------------------------------
# Finite-difference operators
# ---------------------------------------------------------------------------

def _stencil_matrix(n: int, denom: float, interior, offsets, first, last) -> sp.csr_matrix:
    """(n+1)x(n+1) matrix: ``interior`` on the diagonals ``offsets``, with row 0
    replaced by ``first`` on the leading nodes and row n by ``last`` on the
    trailing nodes; every coefficient is divided by ``denom``."""
    m = sp.diags(np.divide(interior, denom), offsets, shape=(n + 1, n + 1), format="lil")
    m[0, : len(first)] = np.divide(first, denom)
    m[n, n + 1 - len(last) :] = np.divide(last, denom)
    return m.tocsr()


def d1_matrix(n: int, h: float) -> sp.csr_matrix:
    """Second-order first derivative: central interior, one-sided at the ends."""
    return _stencil_matrix(n, 2.0 * h, [-1.0, 1.0], [-1, 1], [-3.0, 4.0, -1.0], [1.0, -4.0, 3.0])


def d2_matrix(n: int, h: float) -> sp.csr_matrix:
    """Second-order second derivative: central interior, one-sided at the ends.

    With only three nodes the central stencil is the best available closure.
    """
    end = [2.0, -5.0, 4.0, -1.0] if n >= 3 else [1.0, -2.0, 1.0]
    return _stencil_matrix(n, h * h, [1.0, -2.0, 1.0], [-1, 0, 1], end, end[::-1])


class DiscreteOperators:
    """Sparse stencil matrices and quadrature weights for one grid.

    Fields are flattened row-major, index = i * (nt + 1) + j, so a field is
    also a (P, Q) = (nx + 1, nt + 1) array with x along axis 0. The full-size
    operators are Kronecker products of the 1D stencils, e.g.
    Dx = Gx1d (x) I_t and Dxx = Gxx1d (x) I_t, and Dxt = Dx Dt. An x-stencil
    therefore also acts on the (P, Q) array directly, ``Gx1d @ V``, which is
    how the objective applies Gx1d, Gxx1d and their transposes: a (P, P)
    sparse product over Q columns instead of a (PQ, PQ) matvec. ``Gx_ends``
    holds rows 0 and P-1 of Gx1d, the x-derivative at the two ends only.
    The QR solves assemble their normal equations from the full-size
    operators. ``H2``, the Gram matrix of the discrete H2 norm, comes from
    ``weighted_gram``, whose memo the QR solves read too, so the objective
    and both solves share one matrix per grid.
    """

    def __init__(self, grid: SpaceTimeGrid):
        self.grid = grid
        P, Q = grid.shape
        self.P, self.Q = P, Q
        Ix = sp.identity(P, format="csr")
        It = sp.identity(Q, format="csr")
        self.Gx1d = d1_matrix(grid.nx, grid.dx)
        self.Gxx1d = d2_matrix(grid.nx, grid.dx)
        self.Gx_ends = self.Gx1d[[0, P - 1]]
        self.Dx = sp.kron(self.Gx1d, It, format="csr")
        self.Dt = sp.kron(Ix, d1_matrix(grid.nt, grid.dt), format="csr")
        self.Dxx = sp.kron(self.Gxx1d, It, format="csr")
        self.Dtt = sp.kron(Ix, d2_matrix(grid.nt, grid.dt), format="csr")
        self.Dxt = (self.Dx @ self.Dt).tocsr()
        # CSR transposes for the objective's gradient: ``.T`` of a CSR matrix
        # builds a new CSC object on every access.
        self.DtT, self.Gx1dT, self.Gxx1dT, self.Gx_endsT = (
            m.T.tocsr() for m in (self.Dt, self.Gx1d, self.Gxx1d, self.Gx_ends)
        )
        self.w2 = quad_weights(grid)          # (P, Q) area quadrature
        self.wt = trapezoid_weights(grid.nt, grid.dt)  # (Q,) time-line quadrature
        # the operators R whose weighted squares sum to the discrete H2 norm
        self.h2_ops = (
            sp.identity(P * Q, format="csr"), self.Dx, self.Dt, self.Dxx, self.Dxt, self.Dtt
        )

    @functools.cached_property
    def H2(self) -> sp.csr_matrix:
        """Gram matrix of the discrete H2 norm, sum over h2_ops of R^T diag(w2) R."""
        return weighted_gram(self.h2_ops, self.w2.ravel())

    def apply2d(self, op: sp.spmatrix, v: np.ndarray) -> np.ndarray:
        return (op @ v.ravel()).reshape(self.P, self.Q)


# Gram matrices kept by ``weighted_gram``, newest first.
GRAMS_KEPT = 4
_GRAMS: list = []  # (ops, weights, Gram)


def weighted_gram(ops, weights: np.ndarray) -> sp.csr_matrix:
    """Sum over the sparse matrices ``ops`` of R^T diag(weights) R, memoized.

    A call with the ``ops`` object and the weight values of a kept entry
    returns that entry's matrix, so the H2 Gram that the objective applies
    and the one the quasi-reversibility solves add are one matrix, built
    once per grid. The memo keeps the GRAMS_KEPT newest entries; a rebuilt
    entry is the same sum, so it has the same values. It holds ``ops``
    itself, whose matrices must not be changed in place.
    """
    for held, w, gram in _GRAMS:
        if held is ops and np.array_equal(w, weights):
            return gram
    W = sp.diags(weights)
    gram = sum(R.T @ W @ R for R in ops).tocsr()
    _GRAMS.insert(0, (ops, np.array(weights, dtype=float), gram))
    del _GRAMS[GRAMS_KEPT:]
    return gram


_OPS_CACHE: dict[SpaceTimeGrid, DiscreteOperators] = {}


def operators_for(grid: SpaceTimeGrid) -> DiscreteOperators:
    ops = _OPS_CACHE.get(grid)
    if ops is None:
        ops = DiscreteOperators(grid)
        _OPS_CACHE[grid] = ops
    return ops


def h2_norm_sq(v: np.ndarray, grid: SpaceTimeGrid) -> float:
    """Discrete squared H2 norm of the nodal values ``v`` on ``grid``: the
    integral of v^2 plus all its derivatives up to order 2."""
    v = v.ravel()
    return float(v @ (operators_for(grid).H2 @ v))


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def field_to_csv(f: Field2D) -> str:
    g = f.grid
    buf = io.StringIO()
    buf.write(f"# grid {g.x_min!r} {g.x_max!r} {g.t_max!r} {g.nx} {g.nt}\n")
    np.savetxt(buf, f.values, delimiter=",", fmt="%.17g")
    return buf.getvalue()


def signal_to_csv(s: Signal) -> str:
    buf = io.StringIO()
    buf.write("t,value\n")
    for t, v in zip(s.times(), s.samples):
        buf.write(f"{float(t)!r},{float(v)!r}\n")
    return buf.getvalue()


def profile_to_csv(x: np.ndarray, c: np.ndarray) -> str:
    """A sampled profile c(x) as ``x,c`` rows under a header line."""
    return "x,c\n" + "".join(f"{float(xi)!r},{float(ci)!r}\n" for xi, ci in zip(x, c))


def signal_from_csv(text: str) -> Signal:
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    if lines and lines[0].lower().startswith("t,"):
        lines = lines[1:]
    if not lines:
        raise InvalidInput("signal CSV has no data rows")
    try:
        data = np.loadtxt(io.StringIO("\n".join(lines)), delimiter=",", ndmin=2)
    except ValueError as exc:
        raise InvalidInput(f"signal CSV is malformed: {exc}") from exc
    if data.shape[1] < 2:
        raise InvalidInput(f"signal CSV needs two columns (t, value), found {data.shape[1]}")
    t, v = data[:, 0], data[:, 1]
    if t.size < 2:
        raise InvalidInput("signal CSV needs at least two samples")
    if not np.all(np.isfinite(data[:, :2])):
        raise InvalidInput("signal CSV contains non-finite values")
    if np.any(np.diff(t) <= 0):
        raise InvalidInput("signal CSV times must be strictly increasing")
    dt = float(t[1] - t[0])
    if np.max(np.abs(t - (t[0] + dt * np.arange(t.size)))) > 1e-6 * dt:
        raise InvalidInput("signal CSV times must be uniformly spaced")
    return Signal(float(t[0]), dt, v)
