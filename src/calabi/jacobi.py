"""Jacobi fields along geodesics and the absence of conjugate points.

Along a geodesic u(t) with speed sigma, a Jacobi field J (a solution of
D_t^2 J = R(u', J) u') obeys two conservation laws:

    <u', D_t J>(t) = <u', D_t J>(0),
    <u', J>(t)     = <u', D_t J>(0) t + <u', J>(0),

and, using them, the Jacobi equation collapses to the scalar-coefficient
second-order equation

    J'' + u' J' + (1/vol) <v0, D_t J(0)> = 0.

Initial data splits into a component along u', solved exactly by the affine
law J_tan(t) = (alpha + beta t) u'(t), and a normal component whose closed
form is

    e^(u(t)/2) J(t) = A cos(sigma t / rho) + B sin(sigma t / rho),
    A = e^(u0/2) J(0),  B = (rho/sigma) e^(u0/2) D_t J(0),

the constant-coefficient oscillation of a sphere of radius rho = 2*sqrt(vol).
A normal field vanishing at t = 0 vanishes next at t = pi rho / sigma, which
lies outside every maximal interval: there are no conjugate points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .connection import _rk4
from .errors import ConstraintError
from .geodesics import GeodesicSegment
from .space import TangentVector, inner

__all__ = [
    "JacobiClosedForm",
    "ConjugateScan",
    "jacobi_closed_form",
    "jacobi_ode_rhs",
    "jacobi_solve",
    "conjugate_point_scan",
]

# Normality of initial data is required to this tolerance (relative to vol).
NORMALITY_TOL = 1e-8


def _split_initial_data(
    seg: GeodesicSegment, j0: TangentVector, dtj0: TangentVector
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Split (J(0), D_t J(0)) into along-velocity coefficients and normal parts."""
    u0 = seg.start
    v0 = seg.velocity
    sq = seg.speed**2
    alpha = inner(u0, j0, v0) / sq
    beta = inner(u0, dtj0, v0) / sq
    j0_normal = j0.values - alpha * v0.values
    w0_normal = dtj0.values - beta * v0.values
    return alpha, beta, j0_normal, w0_normal


@dataclass(frozen=True, eq=False)
class JacobiClosedForm:
    """Coefficient fields of e^(u(t)/2) J(t) = A cos(sigma t/rho) + B sin(sigma t/rho).

    Valid for normal initial data (J and D_t J orthogonal to the velocity).
    On a unit-speed geodesic over a normalized domain the phase is simply t.
    """

    geodesic: GeodesicSegment
    coef_cos: np.ndarray
    coef_sin: np.ndarray

    def evaluate(self, t: float) -> np.ndarray:
        seg = self.geodesic
        seg._check_time(t)
        c, s, g = seg._profile(t)
        # e^(u(t)/2) = e^(u0/2) g along the geodesic
        return (self.coef_cos * c + self.coef_sin * s) / (seg.start.half_density() * g)


def _closed_form(seg: GeodesicSegment, j0: np.ndarray, dtj0: np.ndarray) -> JacobiClosedForm:
    """Closed form for the node fields J(0) and D_t J(0), taken as normal."""
    half = seg.start.half_density()
    return JacobiClosedForm(
        geodesic=seg,
        coef_cos=half * j0,
        coef_sin=(seg.domain.radius / seg.speed) * half * dtj0,
    )


def jacobi_closed_form(
    seg: GeodesicSegment, j0: TangentVector, dtj0: TangentVector
) -> JacobiClosedForm:
    """Closed-form solution for normal initial data.

    Raises if the data has a component along the velocity beyond tolerance;
    general data goes through ``jacobi_solve``, which splits it first.
    """
    if seg.speed == 0.0:
        raise ValueError("closed form needs a nonconstant geodesic")
    u0 = seg.start
    v0 = seg.velocity
    scale = max(seg.speed, 1.0)
    for name, vec in (("J(0)", j0), ("D_t J(0)", dtj0)):
        pairing = inner(u0, vec, v0)
        if abs(pairing) > NORMALITY_TOL * u0.domain.vol * scale:
            raise ConstraintError(
                f"{name} has component {pairing!r} along the velocity; "
                "closed form requires normal data"
            )
    return _closed_form(seg, j0.values, dtj0.values)


def jacobi_ode_rhs(
    seg: GeodesicSegment,
    t: float,
    j: np.ndarray,
    j_prime: np.ndarray,
    velocity_pairing: float,
) -> np.ndarray:
    """Second derivative J'' = -u'(t) J' - velocity_pairing / vol.

    ``velocity_pairing`` is the conserved quantity <v0, D_t J(0)>; for data
    normal to the velocity it vanishes and the equation reduces to
    J'' + u'(t) J' = 0.  ``j`` is accepted for signature symmetry: the
    right-hand side is independent of J itself once the conserved pairings
    are substituted.
    """
    seg._check_time(t)
    del j
    if seg.speed == 0.0:
        return np.zeros_like(j_prime)
    u_dot = seg.velocity_values(t)
    return -u_dot * j_prime - velocity_pairing / seg.domain.vol


def jacobi_solve(
    seg: GeodesicSegment,
    j0: TangentVector,
    dtj0: TangentVector,
    t: float,
    method: str = "closed",
) -> np.ndarray:
    """Jacobi field at parameter ``t`` for initial data (J(0), D_t J(0)).

    ``method="closed"`` splits the data into tangential (affine law) and
    normal (closed form) parts; ``method="ode"`` integrates the second-order
    equation by ``connection._rk4`` (cost grows like |t|/tau near the end of
    the interval).  The two branches agree wherever both apply.
    """
    if method not in ("closed", "ode"):
        raise ValueError(f"unknown method {method!r}; use 'closed' or 'ode'")
    seg._check_time(t)
    if seg.speed == 0.0:
        return j0.values + t * dtj0.values
    if method == "closed":
        alpha, beta, j0_normal, w0_normal = _split_initial_data(seg, j0, dtj0)
        normal = _closed_form(seg, j0_normal, w0_normal).evaluate(t)
        return normal + (alpha + beta * t) * seg.velocity_values(t)
    if t == 0.0:
        return j0.values.copy()
    u0 = seg.start
    v0 = seg.velocity
    pairing = inner(u0, dtj0, v0)
    # plain derivative from the covariant one:
    # J' = D_t J - (1/2) u' J - (1/(2 vol)) <J, u'>
    j_prime = (
        dtj0.values
        - 0.5 * v0.values * j0.values
        - inner(u0, j0, v0) / (2.0 * u0.domain.vol)
    )

    def rhs(s: float, state: np.ndarray) -> np.ndarray:
        j, dj = state
        return np.stack([dj, jacobi_ode_rhs(seg, s, j, dj, pairing)])

    return _rk4(rhs, np.stack([j0.values, j_prime]), seg, t)[0]


@dataclass(frozen=True)
class ConjugateScan:
    """Result of scanning a geodesic's interval for conjugate parameters."""

    t_max: float
    first_zero: float
    conjugate_found: bool
    margin: float

    def to_dict(self) -> dict:
        return {
            "t_max": self.t_max,
            "first_zero": self.first_zero,
            "conjugate_found": self.conjugate_found,
            "margin": self.margin,
        }


def conjugate_point_scan(seg: GeodesicSegment) -> ConjugateScan:
    """Scan for conjugate parameters along a nonconstant geodesic.

    A normal Jacobi field vanishing at t = 0 is proportional to
    sin(sigma t / rho), whose first positive zero pi rho / sigma exceeds
    t_max (< (pi/2) rho / sigma), so no zero ever falls inside the interval;
    the reported margin is first_zero - t_max.
    """
    if seg.speed == 0.0:
        raise ValueError("conjugate scan needs a nonconstant geodesic")
    period = math.pi * seg.domain.radius / seg.speed
    found = period < seg.t_max or -period > seg.t_min
    return ConjugateScan(
        t_max=seg.t_max,
        first_zero=period,
        conjugate_found=found,
        margin=period - seg.t_max,
    )
