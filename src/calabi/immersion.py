"""Isometric identification with an open portion of a round sphere.

The map u -> 2 e^(u/2) sends the space into the sphere of radius
rho = 2*sqrt(vol) inside the flat L2 space of node fields, and its
differential v -> e^(u/2) v turns the metric into the plain L2 pairing.
Geodesics map to great circles, so every geometric claim here has an
elementary spherical counterpart; this module provides those counterparts
as exact cross-checks for the intrinsic implementations.
"""

from __future__ import annotations

import numpy as np

from .geodesics import GeodesicSegment, distance, evaluate
from .quadrature import integrate
from .space import ConformalFactor, TangentVector, _check_based_at

__all__ = [
    "immerse",
    "pushforward",
    "chordal_vs_geodesic",
    "sphere_transport_oracle",
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


def sphere_transport_oracle(seg: GeodesicSegment, v0: TangentVector, t: float) -> TangentVector:
    """Parallel transport of ``v0`` along ``seg`` via the sphere picture.

    The image of ``v0`` is split into its component along the great-circle
    velocity, which rotates with the circle, and its ambient-constant normal
    part; the result is pulled back by dividing by e^(u(t)/2).  Exact up to
    rounding, so it serves as the reference for the intrinsic integrator.
    """
    _check_based_at(seg.start, v0, "vector")
    seg._check_time(t)
    if seg.speed == 0.0 or t == 0.0:
        base = seg.start if t == 0.0 else evaluate(seg, t)
        return TangentVector(base, v0.values.copy())
    u_t = evaluate(seg, t)
    dom = seg.domain
    rho = dom.radius
    p = immerse(seg.start)
    tangent_unit = pushforward(seg.start, seg.velocity) / seg.speed
    y0 = pushforward(seg.start, v0)
    a = integrate(dom, y0 * tangent_unit)
    normal = y0 - a * tangent_unit
    theta = seg.speed * t / rho
    rotated = a * (np.cos(theta) * tangent_unit - np.sin(theta) * p / rho)
    y_t = rotated + normal
    return TangentVector(u_t, y_t / u_t.half_density())
