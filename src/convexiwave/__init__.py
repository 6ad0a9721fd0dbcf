"""Reconstruction of a 1D dielectric profile from backscattering wave data.

The pipeline: implicit forward wave simulation, wavefront re-clocking of the
data, a Carleman-weighted strictly convexifiable least-squares objective with
an exact discrete gradient, quasi-reversibility initialization and correction
solves, and radar-style trace preprocessing. Names are imported from their
modules (``convexiwave.solver``, ``convexiwave.grid``, ...); the package top
level holds only ``__version__``.
"""

__version__ = "0.1.0"
