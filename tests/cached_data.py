"""Cached forward simulations and the production inversion grid, shared by the tests.

Test modules import these by name; the module name must not clash with a
module of ``bench/``, whose tests run in the same session.
"""

from __future__ import annotations

import functools

from convexiwave.fixtures import (
    DEFAULT_BOX,
    DEFAULT_FORWARD_GRID,
    medium_from_pieces,
    simulated_boundary_data,
)
from convexiwave.forward import SourceModel, correct_near_origin, extract_boundary, simulate
from convexiwave.grid import SpaceTimeGrid

INVERSION_GRID = SpaceTimeGrid(0.0, 3.0, 6.0, 60, 60)


@functools.lru_cache(maxsize=32)
def cached_boundary_data(name: str, delta: float = 0.0, seed: int = 0):
    return simulated_boundary_data(name, delta=delta, seed=seed)


@functools.lru_cache(maxsize=4)
def null_boundary_data():
    """Boundary data of the homogeneous medium on the production forward grid."""
    fg = DEFAULT_FORWARD_GRID
    medium = medium_from_pieces([], fg.x_min, fg.x_max, fg.nx)
    u = correct_near_origin(simulate(medium, fg, SourceModel()), DEFAULT_BOX)
    return extract_boundary(u, 0.0, fg.t_max)
