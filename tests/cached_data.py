"""Cached forward simulations and the production inversion grid, shared by the tests.

Test modules import these by name; the module name must not clash with a
module of ``bench/``, whose tests run in the same session.
"""

from __future__ import annotations

import functools

from convexiwave.config import RunConfig
from convexiwave.fixtures import medium_from_pieces, simulated_boundary_data
from convexiwave.forward import FORWARD_GRID, boundary_data

INVERSION_GRID = RunConfig().inversion.space_time_grid


@functools.lru_cache(maxsize=32)
def cached_boundary_data(name: str, delta: float = 0.0, seed: int = 0):
    return simulated_boundary_data(name, delta=delta, seed=seed)


@functools.lru_cache(maxsize=4)
def null_boundary_data(eps: float = 0.0):
    """Boundary data of the homogeneous medium on the production forward grid,
    recorded at the observation point x = eps."""
    medium = medium_from_pieces([], FORWARD_GRID)
    return boundary_data(medium, FORWARD_GRID, eps, 0.0, 0)[1]
