"""Isometric identification with an open portion of a round sphere.

The map u -> 2 e^(u/2) sends the space into the sphere of radius
rho = 2*sqrt(vol) inside the flat L2 space of node fields, and its
differential v -> e^(u/2) v turns the metric into the plain L2 pairing.
Geodesics map to great circles, so every geometric claim here has an
elementary spherical counterpart; this module provides those counterparts
as exact cross-checks for the intrinsic implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geodesics import GeodesicSegment, distance, evaluate
from .quadrature import QuadratureDomain, integrate
from .space import ConformalFactor, TangentVector, _check_based_at

__all__ = [
    "SpherePoint",
    "immerse",
    "to_conformal",
    "pushforward",
    "chordal_vs_geodesic",
    "sphere_transport_oracle",
]


@dataclass(frozen=True, eq=False)
class SpherePoint:
    """A strictly positive field with integrate(f^2) = radius^2 = 4*vol."""

    domain: QuadratureDomain
    values: np.ndarray
    radius: float

    def __post_init__(self):
        f = self.domain.check_field(self.values)
        object.__setattr__(self, "values", f)
        if np.any(f <= 0.0):
            raise ValueError("sphere points are strictly positive fields")
        sq = integrate(self.domain, f * f)
        if abs(sq - self.radius**2) > 1e-12 * self.radius**2:
            raise ValueError(
                f"integrate(f^2) = {sq!r} but radius^2 = {self.radius**2!r}"
            )


def immerse(u: ConformalFactor) -> SpherePoint:
    """Image 2 e^(u/2) of a point; the norm constraint is automatic."""
    return SpherePoint(u.domain, 2.0 * u.half_density(), u.domain.radius)


def to_conformal(p: SpherePoint) -> ConformalFactor:
    """Inverse of ``immerse``: u = 2 log(f / 2)."""
    return ConformalFactor(p.domain, 2.0 * np.log(0.5 * p.values))


def pushforward(u: ConformalFactor, v: TangentVector) -> np.ndarray:
    """Differential of the immersion: the ambient field e^(u/2) v."""
    return u.half_density() * v.values


def chordal_vs_geodesic(u0: ConformalFactor, u1: ConformalFactor) -> tuple[float, float]:
    """L2 chord between the sphere images and the intrinsic arc distance.

    They satisfy chord = 2 rho sin(arc / (2 rho)), so chord <= arc always.
    """
    f0 = immerse(u0)
    f1 = immerse(u1)
    diff = f0.values - f1.values
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
    p = immerse(seg.start).values
    tangent_unit = pushforward(seg.start, seg.velocity) / seg.speed
    y0 = pushforward(seg.start, v0)
    a = integrate(dom, y0 * tangent_unit)
    normal = y0 - a * tangent_unit
    theta = seg.speed * t / rho
    rotated = a * (np.cos(theta) * tangent_unit - np.sin(theta) * p / rho)
    y_t = rotated + normal
    return TangentVector(u_t, y_t / u_t.half_density())
