"""Isometric identification with an open portion of a round sphere.

The map u -> 2 e^(u/2) sends the space into the sphere of radius
rho = 2*sqrt(vol) inside the flat L2 space of node fields, and its
differential v -> e^(u/2) v turns the metric into the plain L2 pairing.
Geodesics map to great circles, so every geometric claim here has an
elementary spherical counterpart.  This module provides the images of
points and tangents, which ``verify`` checks against the metric (the
pulled-back L2 pairing) and the radius (the image norm), and the chord
between two images, which obeys chord = 2 rho sin(arc / (2 rho)) with the
arc from ``distance``.  Parallel transport is the great-circle rotation
itself: ``connection.parallel_transport``.
"""

from __future__ import annotations

import numpy as np

from .geodesics import distance
from .quadrature import integrate
from .space import ConformalFactor, TangentVector

__all__ = [
    "immerse",
    "pushforward",
    "chordal_vs_geodesic",
]


def immerse(u: ConformalFactor) -> np.ndarray:
    """The image field 2 e^(u/2); integrate(f^2) = rho^2 holds wherever
    integrate(e^u) = vol does."""
    return 2.0 * u.half_density()


def pushforward(u: ConformalFactor, v: TangentVector) -> np.ndarray:
    """Differential of the immersion: the ambient field e^(u/2) v."""
    return u.half_density() * v.values


def chordal_vs_geodesic(u0: ConformalFactor, u1: ConformalFactor) -> tuple[float, float]:
    """L2 chord between the sphere images and the intrinsic arc distance.

    They satisfy chord = 2 rho sin(arc / (2 rho)), so chord <= arc always.
    """
    diff = immerse(u0) - immerse(u1)
    chord = float(np.sqrt(integrate(u0.domain, diff * diff)))
    return chord, distance(u0, u1).d
