"""Covariant differentiation along curves, parallel transport, and curvature.

The Levi-Civita covariant derivative of a section v along a curve u(t) is

    D_t v = v' + (1/2) v u' + (1/(2 vol)) <v, u'>_u,

where the last term is a constant field.  The connection exists only as an
operator along curves; there is no global chart machinery.  Parallel
transport along a geodesic is the great-circle rotation of the sphere
picture; its oracle ``_transport_ode`` integrates it by ``_rk4``.

The curvature tensor is closed-form:

    R(a, b, c, d) = (1/(4 vol)) (<b,c><a,d> - <a,c><b,d>),

giving constant sectional curvature 1/(4 vol) for every plane at every point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, DomainMismatchError
from .geodesics import GeodesicSegment, evaluate
from .quadrature import integrate
from .space import ConformalFactor, TangentVector, _check_based_at, inner

__all__ = [
    "SampledCurve",
    "cov_deriv",
    "parallel_transport",
    "curvature_tensor",
    "sectional_curvature",
]

# RK4 steps per unit of min(rho/sigma, tau) in ``_rk4``: up to 0.95 of the
# interval the oracles stay ten times inside their 1e-7 and 1e-6 gates.
RK4_STEPS = 128


@dataclass(eq=False)
class SampledCurve:
    """A curve sampled on a strictly increasing time grid.

    ``velocities`` optionally carries analytic velocity fields aligned with
    the samples; when present they are used instead of finite differences of
    the points.
    """

    times: np.ndarray
    points: list[ConformalFactor]
    velocities: list[np.ndarray] | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or self.times.size < 3:
            raise ValueError("need at least 3 time samples")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if len(self.points) != self.times.size:
            raise ValueError("need one point per time sample")
        dom = self.points[0].domain
        if any(p.domain is not dom for p in self.points):
            raise DomainMismatchError("all curve points must share one domain")
        if self.velocities is not None and len(self.velocities) != self.times.size:
            raise ValueError("need one velocity field per time sample")

    @classmethod
    def from_geodesic(cls, seg: GeodesicSegment, times) -> "SampledCurve":
        """Sample a geodesic; attaches its analytic velocity fields."""
        times = np.asarray(times, dtype=float)
        points = [evaluate(seg, t) for t in times]
        vels = [seg.velocity_values(t) for t in times]
        return cls(times=times, points=points, velocities=vels)

    def velocity_field(self, index: int) -> np.ndarray:
        """Velocity at an interior sample: analytic if attached, else a
        central difference of the points."""
        if not 0 < index < self.times.size - 1:
            raise IndexError(f"index {index} is not interior")
        if self.velocities is not None:
            return self.velocities[index]
        dt = self.times[index + 1] - self.times[index - 1]
        return (self.points[index + 1].values - self.points[index - 1].values) / dt


def cov_deriv(
    curve: SampledCurve,
    sections,
    index: int,
    tangent_tol: float = 1e-6,
) -> np.ndarray:
    """Covariant derivative of a sampled section at an interior time index.

    ``sections`` is an array of shape (n_times, n_nodes) aligned with the
    curve samples; its time derivative is taken by central differences.  The
    section must be tangent along the curve to within ``tangent_tol``.
    Returns a plain field, tangent at the evaluation point up to the
    finite-difference error.
    """
    sections = np.asarray(sections, dtype=float)
    if sections.shape != (curve.times.size, curve.points[0].domain.node_count):
        raise ValueError(
            f"sections must have shape (n_times, n_nodes), got {sections.shape}"
        )
    if not 0 < index < curve.times.size - 1:
        raise IndexError(f"index {index} is not interior")
    u = curve.points[index]
    dom = u.domain
    for j in (index - 1, index, index + 1):
        pairing = integrate(dom, sections[j] * curve.points[j].density())
        scale = 1.0 + float(np.max(np.abs(sections[j])))
        if abs(pairing) > tangent_tol * dom.vol * scale:
            raise ConstraintError(
                f"section at time index {j} is not tangent (pairing {pairing!r})"
            )
    dt = curve.times[index + 1] - curve.times[index - 1]
    v_dot = (sections[index + 1] - sections[index - 1]) / dt
    v = sections[index]
    u_dot = curve.velocity_field(index)
    pairing = integrate(dom, v * u_dot * u.density())
    return v_dot + 0.5 * v * u_dot + pairing / (2.0 * dom.vol)


def _rk4(rhs, y: np.ndarray, seg: GeodesicSegment, t: float, project=None) -> np.ndarray:
    """Integrate y' = rhs(s, y) from s = 0 to ``t`` along the nonconstant
    geodesic ``seg`` by classical RK4 in ceil(RK4_STEPS |t| / min(rho/sigma,
    tau)) equal steps.  rho/sigma is the time in which the geodesic turns one
    radian on the immersion sphere, tau the distance from ``t`` to the end of
    the interval on its side, where u' blows up.  Both scale like 1/sigma, so
    the count does not depend on the speed; the cost grows like |t|/tau.
    ``project(s, y)``, when given, maps the state back onto its constraint
    after every step.
    """
    tau = seg.t_max - t if t > 0.0 else t - seg.t_min
    scale = min(seg.domain.radius / seg.speed, tau)
    n_steps = max(1, int(np.ceil(RK4_STEPS * abs(t) / scale)))
    h = t / n_steps
    s = 0.0
    for i in range(n_steps):
        k1 = rhs(s, y)
        k2 = rhs(s + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(s + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(s + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s = t * (i + 1) / n_steps
        if project is not None:
            y = project(s, y)
    return y


def _transport_ode(seg: GeodesicSegment, v0: TangentVector, t: float) -> TangentVector:
    """Oracle for ``parallel_transport``: integrates V' = -(1/2) V u' -
    (1/(2 vol)) <V, u'>_u by ``_rk4`` (cost grows like |t|/tau near the end of
    the interval), re-projecting to the tangent space after every step.
    """
    _check_based_at(seg.start, v0, "vector")
    seg._check_time(t)
    if seg.speed == 0.0 or t == 0.0:
        return TangentVector(evaluate(seg, t) if t != 0.0 else seg.start, v0.values.copy())

    dom = seg.domain
    density0 = seg.start.density()

    def rhs(s: float, vec: np.ndarray) -> np.ndarray:
        u_dot, g = seg._velocity(s)
        pairing = integrate(dom, vec * u_dot * (density0 * g * g))
        return -0.5 * vec * u_dot - pairing / (2.0 * dom.vol)

    def project(s: float, vec: np.ndarray) -> np.ndarray:
        g = seg._profile(s)[2]
        return vec - integrate(dom, vec * (density0 * g * g)) / dom.vol

    vec = _rk4(rhs, v0.values.copy(), seg, t, project)
    return TangentVector(evaluate(seg, t), vec)


def parallel_transport(seg: GeodesicSegment, v0: TangentVector, t: float) -> TangentVector:
    """Transport ``v0`` along the geodesic to parameter ``t``, in closed form.

    On the sphere the geodesic turns by theta = sigma t / rho; the part of
    e^(u0/2) v0 along the great circle turns with it, the rest stays put.
    Divided by e^(u(t)/2) = e^(u0/2) g, with v the velocity and b = ``coeff``,
    this is (v0 + (2 <v0, v> / (sigma rho)) ((cos theta - 1) b - sin theta)) / g:
    exact, and finite where e^(u0/2) underflows.
    """
    _check_based_at(seg.start, v0, "vector")
    seg._check_time(t)
    if seg.speed == 0.0 or t == 0.0:
        return TangentVector(seg.start, v0.values.copy())
    c, s, g = seg._profile(t)
    a = 2.0 * inner(seg.start, v0, seg.velocity) / (seg.speed * seg.domain.radius)
    return TangentVector(evaluate(seg, t), (v0.values + a * ((c - 1.0) * seg.coeff - s)) / g)


def curvature_tensor(
    u: ConformalFactor,
    a: TangentVector,
    b: TangentVector,
    c: TangentVector,
    d: TangentVector,
) -> float:
    """Closed-form curvature tensor (1/(4 vol)) (<b,c><a,d> - <a,c><b,d>)."""
    coef = 1.0 / (4.0 * u.domain.vol)
    return coef * (inner(u, b, c) * inner(u, a, d) - inner(u, a, c) * inner(u, b, d))


def sectional_curvature(u: ConformalFactor, a: TangentVector, b: TangentVector) -> float:
    """Sectional curvature of the plane spanned by ``a`` and ``b``.

    Analytically equal to 1/(4 vol) for every plane; on a normalized domain
    the value is exactly 1.0.
    """
    gram = inner(u, a, a) * inner(u, b, b) - inner(u, a, b) ** 2
    if not gram > 1e-12:
        raise ValueError(
            f"plane is degenerate (Gram determinant {gram!r}); "
            "need linearly independent tangents"
        )
    return -curvature_tensor(u, a, b, a, b) / gram
