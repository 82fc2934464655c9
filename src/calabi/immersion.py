"""Isometric identification with an open portion of a round sphere.

The map u -> 2 e^(u/2) sends the space into the sphere of radius
rho = 2*sqrt(vol) inside the flat L2 space of node fields, and its
differential v -> e^(u/2) v turns the metric into the plain L2 pairing.
Geodesics map to great circles, so every geometric claim here has an
elementary spherical counterpart.  This module provides the images of
points and tangents, which ``verify`` checks against the metric (the
pulled-back L2 pairing) and the radius (the image norm).  The two-point
geometry is the sphere's own: ``geodesics.distance`` is rho times the angle
2 arcsin(chord / (2 rho)) subtended by the chord between two images, and
parallel transport is the great-circle rotation,
``connection.parallel_transport``.
"""

from __future__ import annotations

import numpy as np

from .space import ConformalFactor, TangentVector

__all__ = [
    "immerse",
    "pushforward",
]


def immerse(u: ConformalFactor) -> np.ndarray:
    """The image field 2 e^(u/2); integrate(f^2) = rho^2 holds wherever
    integrate(e^u) = vol does."""
    return 2.0 * u.half_density()


def pushforward(u: ConformalFactor, v: TangentVector) -> np.ndarray:
    """Differential of the immersion: the ambient field e^(u/2) v."""
    return u.half_density() * v.values
