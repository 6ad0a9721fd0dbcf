"""Cached forward simulations and the production inversion grid, shared by the tests.

Test modules import these by name; the module name must not clash with a
module of ``bench/``, whose tests run in the same session.
"""

from __future__ import annotations

import functools

from convexiwave.config import RunConfig
from convexiwave.fixtures import DEFAULT_FORWARD_GRID, medium_from_pieces, simulated_boundary_data
from convexiwave.forward import CorrectionBox, SourceModel, boundary_data
from convexiwave.grid import SpaceTimeGrid

_INV = RunConfig().inversion
INVERSION_GRID = SpaceTimeGrid(_INV.eps, _INV.M, _INV.T, _INV.nx, _INV.nt)


@functools.lru_cache(maxsize=32)
def cached_boundary_data(name: str, delta: float = 0.0, seed: int = 0):
    return simulated_boundary_data(name, delta=delta, seed=seed)


@functools.lru_cache(maxsize=4)
def null_boundary_data():
    """Boundary data of the homogeneous medium on the production forward grid."""
    medium = medium_from_pieces([], DEFAULT_FORWARD_GRID)
    return boundary_data(
        medium, DEFAULT_FORWARD_GRID, SourceModel(), CorrectionBox(), 0.0, 0.0, 0
    )[1]
