"""Shared test fixtures."""

from __future__ import annotations

import pytest

from cached_data import INVERSION_GRID


@pytest.fixture(scope="session")
def inversion_grid():
    return INVERSION_GRID
