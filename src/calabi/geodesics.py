"""Closed-form geodesics, exponential/logarithm maps, and the induced distance.

With rho = 2*sqrt(vol) (the radius of the sphere the space immerses into) and
sigma = |v0| the initial speed, the geodesic through u0 with velocity v0 is

    e^(u(t)/2) = e^(u0/2) (cos(theta) + b sin(theta)),
    theta = sigma t / rho,   b = rho v0 / (2 sigma),

which exists while the parenthesis stays positive at every node.  This gives
the open maximal interval

    t in ( -(rho/sigma) arccot(rho max(v0)/(2 sigma)),
            (rho/sigma) arccot(-rho min(v0)/(2 sigma)) ),

with arccot valued in (0, pi).  On a normalized domain (vol = 1/4, rho = 1)
these reduce verbatim to the unit-curvature formulas; the implementation is
arranged so that the reduction is bit-exact.

The two-point problem is solved without iteration: the half-chord

    m = |h1 - h0| = sqrt(integrate(e^max(u0, u1) expm1(-|u1 - u0|/2)^2))

of the half-densities h = e^(u/2) gives the parameter t0 = 2 arcsin(m / rho)
at which the connecting geodesic reaches u1, and the distance rho * t0.  No
step subtracts nearly equal numbers, so t0 is exactly 0 for equal fields and
accurate to rounding down to m near 1e-150, where m^2 underflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEndpointsError, DomainMismatchError, ExpDomainError
from .quadrature import QuadratureDomain, integrate
from .space import (
    ConformalFactor,
    TangentVector,
    _check_based_at,
    norm,
    project_to_space,
    project_to_tangent,
)

__all__ = [
    "GeodesicSegment",
    "DistanceReport",
    "arccot",
    "geodesic_cauchy",
    "evaluate",
    "exp_map",
    "log_map",
    "geodesic_dirichlet",
    "distance",
    "path_length",
    "diameter_sequence",
    "boundary_sequence",
]

def arccot(x: float) -> float:
    """Inverse cotangent valued in (0, pi)."""
    return float(np.arctan2(1.0, x))


@dataclass(frozen=True, eq=False)
class GeodesicSegment:
    """A maximal geodesic through ``start`` with initial velocity ``velocity``.

    ``coeff`` caches the node field rho*v0/(2*speed); the segment is
    evaluable at any t in the open interval (t_min, t_max).  A zero-speed
    segment is the constant curve with infinite interval.
    """

    start: ConformalFactor
    velocity: TangentVector
    speed: float
    t_min: float
    t_max: float
    coeff: np.ndarray

    @property
    def domain(self) -> QuadratureDomain:
        return self.start.domain

    def _check_time(self, t: float) -> None:
        if not self.t_min < t < self.t_max:
            raise ValueError(
                f"t = {t} outside the open existence interval "
                f"({self.t_min}, {self.t_max})"
            )

    def _profile(self, t: float) -> tuple[float, float, np.ndarray]:
        """cos(theta), sin(theta) and g = cos(theta) + coeff sin(theta) at the
        sphere angle theta = speed t / rho, unchecked.  The point at t is
        u0 + 2 log(g)."""
        theta = self.speed * t / self.domain.radius
        c, s = np.cos(theta), np.sin(theta)
        return c, s, c + self.coeff * s

    def _velocity(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Velocity field u'(t) and the profile g at t, unchecked."""
        c, s, g = self._profile(t)
        return (2.0 * self.speed / self.domain.radius) * (self.coeff * c - s) / g, g

    def velocity_values(self, t: float) -> np.ndarray:
        """Raw velocity field u'(t), without wrapping it in a tangent vector."""
        self._check_time(t)
        if self.speed == 0.0:
            return np.zeros(self.domain.node_count)
        return self._velocity(t)[0]

    def velocity_at(self, t: float) -> TangentVector:
        """Velocity field u'(t) as a tangent vector at the point u(t)."""
        return TangentVector(evaluate(self, t), self.velocity_values(t))


def geodesic_cauchy(u0: ConformalFactor, v0: TangentVector) -> GeodesicSegment:
    """Maximal geodesic with initial position ``u0`` and velocity ``v0``."""
    _check_based_at(u0, v0, "initial velocity")
    speed = norm(u0, v0)
    rho = u0.domain.radius
    if speed == 0.0:
        return GeodesicSegment(
            start=u0,
            velocity=v0,
            speed=0.0,
            t_min=-math.inf,
            t_max=math.inf,
            coeff=np.zeros(u0.domain.node_count),
        )
    coeff = rho * v0.values / (2.0 * speed)
    vmin = float(np.min(v0.values))
    vmax = float(np.max(v0.values))
    t_max = rho * arccot(-rho * vmin / (2.0 * speed)) / speed
    t_min = -(rho * arccot(rho * vmax / (2.0 * speed)) / speed)
    return GeodesicSegment(
        start=u0, velocity=v0, speed=speed, t_min=t_min, t_max=t_max, coeff=coeff
    )


def evaluate(seg: GeodesicSegment, t: float) -> ConformalFactor:
    """Point of the geodesic at parameter ``t`` inside the open interval."""
    seg._check_time(t)
    if seg.speed == 0.0:
        return seg.start
    return ConformalFactor(seg.domain, seg.start.values + 2.0 * np.log(seg._profile(t)[2]))


def exp_map(u0: ConformalFactor, v0: TangentVector) -> ConformalFactor:
    """Time-one point of the geodesic with initial data (u0, v0).

    Defined for velocities whose norm is below the direction-dependent bound
    rho * arccot(-rho * min(v0) / (2 |v0|)); outside it the geodesic leaves
    the space before time one.
    """
    seg = geodesic_cauchy(u0, v0)
    if seg.speed == 0.0:
        return u0
    rho = u0.domain.radius
    bound = rho * arccot(-rho * float(np.min(v0.values)) / (2.0 * seg.speed))
    if not seg.speed < bound:
        raise ExpDomainError(
            f"|v0| = {seg.speed} is not below the admissible bound {bound} "
            "for this direction",
            bound=bound,
        )
    return evaluate(seg, 1.0)


def _half_density_log(u: ConformalFactor, fields: np.ndarray):
    """Angles theta_i = 2 arcsin(m_i / rho), 1 - cos(theta_i) = 2 (m_i / rho)^2
    and log directions expm1((u_i - u)/2) + 1 - cos(theta_i), which is
    h_i/h - cos(theta_i), of the rows u_i of a (k, N) stack seen from ``u``;
    the log map is the direction times 2 theta_i / sin(theta_i).  The
    half-chord m_i = |h_i - h| is summed from e^max(u_i, u) expm1(-|u_i - u|/2)^2
    at each node: for points of the space it neither overflows nor cancels,
    however far apart u_i and u are at a node, and it gives the same bits
    for (u_i, u).
    """
    dom = u.domain
    # gap becomes the returned directions; allocated before the temporary
    # chord, it does not keep chord's memory from going back to the system
    gap = np.subtract(fields, u.values)
    chord = np.maximum(fields, u.values)
    np.exp(chord, out=chord)
    np.abs(gap, out=gap)
    gap *= -0.5
    np.expm1(gap, out=gap)
    gap *= gap
    chord *= gap
    ratio = np.sqrt(integrate(dom, chord)) / dom.radius
    one_minus_cos = 2.0 * ratio * ratio
    directions = np.subtract(fields, u.values, out=gap)
    directions *= 0.5
    np.expm1(directions, out=directions)
    directions += one_minus_cos[:, None]
    return 2.0 * np.arcsin(ratio), one_minus_cos, directions


def _pair_log(u0: ConformalFactor, u1: ConformalFactor):
    """``_half_density_log`` of the single pair (u0, u1), as scalars and one
    direction field."""
    if u1.domain is not u0.domain:
        raise DomainMismatchError("points live on different domains")
    theta, one_minus_cos, directions = _half_density_log(u0, u1.values[None, :])
    return float(theta[0]), float(one_minus_cos[0]), directions[0]


def log_map(u0: ConformalFactor, w: ConformalFactor) -> TangentVector:
    """Inverse of the exponential map: the v with exp_map(u0, v) = w.

    The norm of the result is the distance between the points; equal points
    give exactly the zero vector.
    """
    theta, _, direction = _pair_log(u0, w)
    return TangentVector(u0, direction * (2.0 / np.sinc(theta / np.pi)))


def geodesic_dirichlet(
    u0: ConformalFactor, u1: ConformalFactor
) -> tuple[GeodesicSegment, float]:
    """Geodesic segment from ``u0`` to ``u1`` and the parameter t0 at which it
    arrives.

    The segment is parametrized by sphere angle, so t0 = 2 arcsin(m / rho)
    lies in (0, pi/2) and the distance equals rho * t0.  The initial velocity
    is (2/sin t0)(e^((u1-u0)/2) - cos t0), projected to the tangent space and
    then scaled to norm rho, so the speed is rho by construction whatever
    rounding the endpoints' masses carry; the 2/sin t0 factor comes first so
    that close endpoints do not underflow.  Raises DegenerateEndpointsError
    exactly when t0 is 0.
    """
    t0, _, direction = _pair_log(u0, u1)
    if t0 == 0.0:
        raise DegenerateEndpointsError("endpoints coincide; no connecting segment")
    v0 = project_to_tangent(u0, (2.0 / np.sin(t0)) * direction)
    v0 = TangentVector(u0, v0.values * (u0.domain.radius / norm(u0, v0)))
    return geodesic_cauchy(u0, v0), t0


@dataclass(frozen=True)
class DistanceReport:
    """Distance d = rho * t0, the arrival parameter t0 = 2 arcsin(m / rho) of
    the connecting segment, and cosine = cos(t0) = 1 - 2 (m / rho)^2 in
    (0, 1], with m the half-chord of the module docstring."""

    d: float
    t0: float
    cosine: float


def distance(u0: ConformalFactor, u1: ConformalFactor) -> DistanceReport:
    """Geodesic distance between two points; zero iff they coincide, and the
    same bits in either order."""
    t0, one_minus_cos, _ = _pair_log(u0, u1)
    return DistanceReport(d=u0.domain.radius * t0, t0=t0, cosine=1.0 - one_minus_cos)


def path_length(points: list[ConformalFactor], times) -> float:
    """Riemannian length of a sampled path by the midpoint rule.

    Each segment contributes |(u_{i+1} - u_i)/dt|_m * dt, with the norm taken
    at the renormalized midpoint m and the chord projected to the tangent
    space there, for all segments at once on the stacked samples.
    """
    times = np.asarray(times, dtype=float)
    if len(points) != times.size:
        raise ValueError("need one sample point per time")
    if len(points) < 2:
        raise ValueError("need at least two samples")
    dt = np.diff(times)
    if not np.all(dt > 0.0):
        raise ValueError("times must be strictly increasing")
    dom = points[0].domain
    u = np.array([p.values for p in points])
    density = np.exp(0.5 * (u[:-1] + u[1:]))
    density *= (dom.vol / integrate(dom, density))[:, None]
    vel = (u[1:] - u[:-1]) / dt[:, None]
    vel -= (integrate(dom, vel * density) / dom.vol)[:, None]
    return float(np.sum(np.sqrt(integrate(dom, vel * vel * density)) * dt))


def _bump_field(node_count: int, n_inner: int, n_outer: int) -> np.ndarray:
    """Indicator of the first ``n_inner`` nodes after one averaging pass:
    full height inside, half height on the transition ring, zero outside."""
    f = np.zeros(node_count)
    f[:n_inner] = 1.0
    f[n_inner:n_outer] = 0.5
    return f


def diameter_sequence(u: ConformalFactor, k_max: int) -> list[tuple[int, float]]:
    """Distances from ``u`` to a sequence of concentrating densities.

    The k-th density piles the whole mass onto a node set of fraction 4^-k
    (with a transition ring of fraction 3^-k) over a floor eps_k = 4^-k, so
    the distances increase toward the supremum (pi/2) * rho while staying
    strictly below it.
    """
    dom = u.domain
    n = dom.node_count
    if n < 16:
        raise ValueError(f"need at least 16 nodes to host the bumps, got {n}")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    out = []
    for k in range(1, k_max + 1):
        n_inner = max(1, round(n * 4.0**-k))
        n_outer = max(n_inner, round(n * 3.0**-k))
        eps = 4.0**-k
        f = _bump_field(n, n_inner, n_outer)
        alpha = integrate(dom, f)
        density = (f * (dom.vol / alpha) + eps) / (1.0 + eps)
        u_k = project_to_space(dom, np.log(density))
        out.append((k, distance(u, u_k).d))
    return out


def boundary_sequence(u0: ConformalFactor, k_max: int) -> list[tuple[int, float]]:
    """Times at which unit-speed geodesics from ``u0`` leave the space.

    The k-th initial velocity is a unit tangent that is constant and negative
    on a node set of fraction 4^-k and constant positive elsewhere; as the
    set shrinks the negative value grows and the exit time
    t_k = rho * arccot(-rho * min(v_k) / 2) decreases toward zero, saturating
    once the set reaches a single node.
    """
    dom = u0.domain
    n = dom.node_count
    if n < 16:
        raise ValueError(f"need at least 16 nodes to host the bumps, got {n}")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    density = u0.density()
    out = []
    for k in range(1, k_max + 1):
        n_k = max(1, round(n * 4.0**-k))
        mu_s = integrate(dom, density * (np.arange(n) < n_k))
        mu_t = dom.vol - mu_s
        c = math.sqrt(mu_t / (mu_s * dom.vol))
        values = np.full(n, c * mu_s / mu_t)
        values[:n_k] = -c
        v_k = TangentVector(u0, values)
        seg = geodesic_cauchy(u0, v_k)
        out.append((k, seg.t_max))
    return out
