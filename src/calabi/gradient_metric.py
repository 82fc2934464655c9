"""Gradient inner product on normalized potentials over a periodic surface grid.

On a closed surface the pairing

    <<psi, chi>> = integrate(grad psi . grad chi) = -integrate(psi lap chi)

does not depend on the potential at which it is evaluated, because the
conformal factor in the Laplacian cancels against the one in the measure.
The discrete gradient is the forward difference and the Laplacian is the
standard 5-point stencil (= backward of forward), so summation by parts is
an exact identity, not an approximation.

The resulting geometry is flat: the covariant derivative is

    D_t psi = psi' - (1/vol) <<psi, phi'>>,

a plain derivative minus a constant field, the curvature tensor vanishes,
and geodesics are quadratic in t with a spatially constant quadratic term

    phi(t) = (<<psi0, psi0>> / (2 vol)) t^2 + psi0 t + phi0.

Only surface grids are accepted; higher-dimensional analogues would require
a potential-dependent elliptic solve and are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, DomainMismatchError
from .quadrature import QuadratureDomain, integrate

__all__ = [
    "GridPotential",
    "GridTangent",
    "laplacian",
    "grad_forward",
    "normalization_value",
    "make_grid_potential",
    "project_to_grid_tangent",
    "gradient_inner",
    "gradient_inner_gradform",
    "gradient_cov_deriv",
    "gradient_geodesic",
    "gradient_admissible_interval",
    "gradient_curvature",
]

EPS_NORMALIZATION = 1e-10

FD_CURVATURE_DELTA = 1e-3


def _require_grid(domain: QuadratureDomain) -> None:
    if domain.grid is None:
        raise DomainMismatchError("this operation needs a periodic grid domain")


def laplacian(domain: QuadratureDomain, field) -> np.ndarray:
    """Periodic 5-point Laplacian on the grid, scaled by 1/spacing^2."""
    _require_grid(domain)
    g = domain.grid
    f = domain.check_field(field).reshape(g.nx, g.ny)
    out = (
        np.roll(f, 1, axis=0)
        + np.roll(f, -1, axis=0)
        + np.roll(f, 1, axis=1)
        + np.roll(f, -1, axis=1)
        - 4.0 * f
    ) / g.spacing**2
    return out.reshape(-1)


def grad_forward(domain: QuadratureDomain, field) -> tuple[np.ndarray, np.ndarray]:
    """Forward-difference gradient with periodic wrap, scaled by 1/spacing.

    Its negative adjoint under the uniform weights is the backward
    divergence, and backward-of-forward reproduces ``laplacian`` exactly.
    """
    _require_grid(domain)
    g = domain.grid
    f = domain.check_field(field).reshape(g.nx, g.ny)
    gx = (np.roll(f, -1, axis=0) - f) / g.spacing
    gy = (np.roll(f, -1, axis=1) - f) / g.spacing
    return gx.reshape(-1), gy.reshape(-1)


def normalization_value(domain: QuadratureDomain, values) -> float:
    """Path-integral normalization functional of a raw potential.

    The path integral of s -> integrate(phi (1 + s lap phi)) over [0, 1],
    divided by the volume; the integrand is linear in s, so this is
    (integrate(phi) + integrate(phi lap phi) / 2) / vol.  Subtracting this
    constant from the potential makes the functional vanish exactly.
    """
    v = domain.check_field(values)
    cross = integrate(domain, v * laplacian(domain, v))
    return (integrate(domain, v) + 0.5 * cross) / domain.vol


@dataclass(frozen=True, eq=False)
class GridPotential:
    """A normalized potential: 1 + lap(phi) > 0 with zero normalization value."""

    domain: QuadratureDomain
    values: np.ndarray

    def __post_init__(self):
        _require_grid(self.domain)
        v = self.domain.check_field(self.values)
        object.__setattr__(self, "values", v)
        if np.any(1.0 + laplacian(self.domain, v) <= 0.0):
            raise ConstraintError("1 + lap(phi) must be positive at every node")
        nv = normalization_value(self.domain, v)
        if abs(nv) > EPS_NORMALIZATION:
            raise ConstraintError(
                f"normalization value {nv!r} is not zero; use make_grid_potential"
            )

    def conformal_weight(self) -> np.ndarray:
        """The field 1 + lap(phi), the density of the deformed measure."""
        return 1.0 + laplacian(self.domain, self.values)


@dataclass(frozen=True, eq=False)
class GridTangent:
    """A tangent at ``potential``: field with integrate(psi (1 + lap phi)) = 0."""

    potential: GridPotential
    values: np.ndarray

    def __post_init__(self):
        v = self.potential.domain.check_field(self.values)
        object.__setattr__(self, "values", v)
        dom = self.potential.domain
        pairing = integrate(dom, v * self.potential.conformal_weight())
        scale = 1.0 + float(np.max(np.abs(v))) if v.size else 1.0
        if abs(pairing) > EPS_NORMALIZATION * dom.vol * scale:
            raise ConstraintError(
                f"integrate(psi (1 + lap phi)) = {pairing!r} is not zero; "
                "use project_to_grid_tangent"
            )

    @property
    def domain(self) -> QuadratureDomain:
        return self.potential.domain


def make_grid_potential(domain: QuadratureDomain, raw) -> GridPotential:
    """Normalize a raw potential by subtracting its normalization value."""
    v = domain.check_field(raw)
    return GridPotential(domain, v - normalization_value(domain, v))


def project_to_grid_tangent(phi: GridPotential, raw) -> GridTangent:
    """Subtract the deformed-measure mean so the tangency constraint holds."""
    v = phi.domain.check_field(raw)
    mean = integrate(phi.domain, v * phi.conformal_weight()) / phi.domain.vol
    return GridTangent(phi, v - mean)


def _check_at(phi: GridPotential, psi: GridTangent, name: str) -> None:
    if psi.potential is phi:
        return
    if psi.potential.domain is not phi.domain or not np.array_equal(
        psi.potential.values, phi.values
    ):
        raise DomainMismatchError(f"{name} is not based at the given potential")


def _pairing(domain: QuadratureDomain, x: np.ndarray, y: np.ndarray) -> float:
    """The potential-independent form -integrate(x lap y)."""
    return -integrate(domain, x * laplacian(domain, y))


def gradient_inner(phi: GridPotential, psi: GridTangent, chi: GridTangent) -> float:
    """Inner product -integrate(psi lap chi); independent of ``phi`` on surfaces."""
    _check_at(phi, psi, "first tangent")
    _check_at(phi, chi, "second tangent")
    return _pairing(phi.domain, psi.values, chi.values)


def gradient_inner_gradform(phi: GridPotential, psi: GridTangent, chi: GridTangent) -> float:
    """Dual form integrate(grad psi . grad chi); equals ``gradient_inner``
    exactly because the stencils are adjoint."""
    _check_at(phi, psi, "first tangent")
    _check_at(phi, chi, "second tangent")
    dom = phi.domain
    px, py = grad_forward(dom, psi.values)
    cx, cy = grad_forward(dom, chi.values)
    return integrate(dom, px * cx + py * cy)


def gradient_cov_deriv(times, potentials: list[GridPotential], sections, index: int) -> np.ndarray:
    """Covariant derivative of a sampled section at an interior time index.

    Central differences supply psi' and phi'; the correction is the constant
    field (1/vol) <<psi, phi'>>.  Returns a plain field, tangent at the
    evaluation point up to the finite-difference error.
    """
    times = np.asarray(times, dtype=float)
    sections = np.asarray(sections, dtype=float)
    if times.size < 3 or np.any(np.diff(times) <= 0.0):
        raise ValueError("need at least 3 strictly increasing time samples")
    if len(potentials) != times.size or sections.shape[0] != times.size:
        raise ValueError("need one potential and one section per time sample")
    if not 0 < index < times.size - 1:
        raise IndexError(f"index {index} is not interior")
    dom = potentials[0].domain
    dt = times[index + 1] - times[index - 1]
    psi_dot = (sections[index + 1] - sections[index - 1]) / dt
    phi_dot = (potentials[index + 1].values - potentials[index - 1].values) / dt
    corr = _pairing(dom, sections[index], phi_dot) / dom.vol
    return psi_dot - corr


def gradient_admissible_interval(phi0: GridPotential, psi0: GridTangent) -> tuple[float, float]:
    """Open interval of parameters for which 1 + lap(phi(t)) stays positive.

    Only the linear term threatens positivity: the quadratic coefficient of
    the geodesic is spatially constant, so its Laplacian vanishes.
    """
    _check_at(phi0, psi0, "initial velocity")
    dom = phi0.domain
    base = phi0.conformal_weight()
    slope = laplacian(dom, psi0.values)
    t_lo, t_hi = -math.inf, math.inf
    neg = slope < 0.0
    if np.any(neg):
        t_hi = float(np.min(-base[neg] / slope[neg]))
    pos = slope > 0.0
    if np.any(pos):
        t_lo = float(np.max(-base[pos] / slope[pos]))
    return t_lo, t_hi


def gradient_geodesic(phi0: GridPotential, psi0: GridTangent, t: float) -> GridPotential:
    """Quadratic geodesic (<<psi0,psi0>>/(2 vol)) t^2 + psi0 t + phi0 at time t."""
    _check_at(phi0, psi0, "initial velocity")
    t_lo, t_hi = gradient_admissible_interval(phi0, psi0)
    if not t_lo < t < t_hi:
        raise ValueError(
            f"t = {t} outside the admissible interval ({t_lo}, {t_hi}) "
            "for positivity of 1 + lap(phi)"
        )
    dom = phi0.domain
    energy = gradient_inner(phi0, psi0, psi0)
    values = (energy / (2.0 * dom.vol)) * t**2 + psi0.values * t + phi0.values
    return GridPotential(dom, values)


def gradient_curvature(
    phi: GridPotential,
    a: GridTangent,
    b: GridTangent,
    c: GridTangent,
    d: GridTangent,
) -> float:
    """Pairing of (D_t D_s - D_s D_t) applied to a section against ``d``.

    Built on the two-parameter family phi + t a + s b with the section given
    by projecting ``c`` to each tangent space, in central differences of step
    FD_CURVATURE_DELTA; all of them are exact for this affine family, so the
    result is zero to rounding.
    """
    delta = FD_CURVATURE_DELTA
    for x in (a, b, c, d):
        _check_at(phi, x, "tangent argument")
    dom = phi.domain
    base = phi.values
    va, vb, vc = a.values, b.values, c.values

    def section(s: float, t: float) -> np.ndarray:
        wgt = 1.0 + laplacian(dom, base + t * va + s * vb)
        if np.any(wgt <= 0.0):
            raise ValueError("family leaves the space within the difference step")
        mean = integrate(dom, vc * wgt) / dom.vol
        return vc - mean

    def cov(first: np.ndarray, s: float, t: float, along: np.ndarray) -> np.ndarray:
        return first - _pairing(dom, section(s, t), along) / dom.vol

    def d_s(s: float, t: float) -> np.ndarray:
        ds = (section(s + delta, t) - section(s - delta, t)) / (2.0 * delta)
        return cov(ds, s, t, vb)

    def d_t(s: float, t: float) -> np.ndarray:
        dt = (section(s, t + delta) - section(s, t - delta)) / (2.0 * delta)
        return cov(dt, s, t, va)

    dt_ds = (d_s(0.0, delta) - d_s(0.0, -delta)) / (2.0 * delta) - _pairing(
        dom, d_s(0.0, 0.0), va
    ) / dom.vol
    ds_dt = (d_t(delta, 0.0) - d_t(-delta, 0.0)) / (2.0 * delta) - _pairing(
        dom, d_t(0.0, 0.0), vb
    ) / dom.vol
    return _pairing(dom, dt_ds - ds_dt, d.values)
