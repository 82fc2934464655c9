"""Normalized log-density fields and their tangent vectors.

A point of the space is a field ``u`` with ``integrate(e^u) = vol``; a tangent
vector at ``u`` is a field ``v`` with ``integrate(v e^u) = 0``.  The metric is
the volume-weighted pairing ``<v, w>_u = integrate(v w e^u)``.

Fields are stored on the log scale: geodesics reach the boundary of the space
through ``e^u -> 0`` at single nodes, which stays representable in ``u`` long
after ``e^u`` underflows relative precision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConstraintError, DomainMismatchError
from .quadrature import QuadratureDomain, domain_from_dict, integrate, load_domain

__all__ = [
    "ConformalFactor",
    "TangentVector",
    "project_to_space",
    "project_to_tangent",
    "inner",
    "norm",
    "zero_tangent",
    "random_point",
    "random_tangent",
    "load_density",
    "density_to_dict",
]

# Membership constraints are enforced to this relative precision.
EPS_CONSTRAINT = 1e-10


@dataclass(frozen=True, eq=False)
class ConformalFactor:
    """A point of the space: field ``u`` with ``integrate(e^u) = vol``."""

    domain: QuadratureDomain
    values: np.ndarray

    def __post_init__(self):
        v = self.domain.check_field(self.values)
        object.__setattr__(self, "values", v)
        mass = integrate(self.domain, np.exp(v))
        if abs(mass - self.domain.vol) > EPS_CONSTRAINT * self.domain.vol:
            raise ConstraintError(
                f"integrate(e^u) = {mass!r} but vol = {self.domain.vol!r}; "
                "use project_to_space to renormalize"
            )

    def density(self) -> np.ndarray:
        """Pointwise density e^u."""
        return np.exp(self.values)

    def half_density(self) -> np.ndarray:
        """Pointwise e^(u/2)."""
        return np.exp(0.5 * self.values)


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A tangent vector at ``basepoint``: field ``v`` with ``integrate(v e^u) = 0``."""

    basepoint: ConformalFactor
    values: np.ndarray

    def __post_init__(self):
        v = self.basepoint.domain.check_field(self.values)
        object.__setattr__(self, "values", v)
        pairing = integrate(self.basepoint.domain, v * self.basepoint.density())
        vol = self.basepoint.domain.vol
        scale = 1.0 + float(np.max(np.abs(v))) if v.size else 1.0
        if abs(pairing) > EPS_CONSTRAINT * vol * scale:
            raise ConstraintError(
                f"integrate(v e^u) = {pairing!r} is not zero; "
                "use project_to_tangent"
            )

    @property
    def domain(self) -> QuadratureDomain:
        return self.basepoint.domain


def project_to_space(domain: QuadratureDomain, raw) -> ConformalFactor:
    """Shift a raw field by a constant so that ``integrate(e^u) = vol``.

    The additive-constant shift is the unique correction of this form; it
    also makes the result invariant under adding constants to ``raw``.  Every
    finite field is accepted unless its range overflows float64.
    """
    r = domain.check_field(raw)
    if not np.all(np.isfinite(r)):
        raise ValueError("raw field must be finite at every node")
    # Shifted so that its maximum is 0: e^shifted cannot overflow, and the
    # mass is at least the largest weight, so it is never zero.
    with np.errstate(over="ignore"):
        shifted = r - np.max(r)
    if not np.all(np.isfinite(shifted)):
        raise ValueError("range of the raw field overflows float64")
    mass = integrate(domain, np.exp(shifted))
    return ConformalFactor(domain, shifted - np.log(mass / domain.vol))


def project_to_tangent(u: ConformalFactor, raw) -> TangentVector:
    """Subtract the weighted mean so that ``integrate(v e^u) = 0``.

    This is the orthogonal projection onto the tangent space at ``u`` with
    respect to the metric at ``u``, because the complement of the tangent
    space consists exactly of the constant fields.
    """
    r = u.domain.check_field(raw)
    if not np.all(np.isfinite(r)):
        raise ValueError("raw field must be finite at every node")
    mean = integrate(u.domain, r * u.density()) / u.domain.vol
    return TangentVector(u, r - mean)


def _check_based_at(u: ConformalFactor, v: TangentVector, name: str) -> None:
    if v.basepoint is u:
        return
    if v.basepoint.domain is not u.domain or not np.array_equal(
        v.basepoint.values, u.values
    ):
        raise DomainMismatchError(f"{name} is not based at the given point")


def inner(u: ConformalFactor, v: TangentVector, w: TangentVector) -> float:
    """Metric pairing ``integrate(v w e^u)`` of two tangents at ``u``."""
    _check_based_at(u, v, "first tangent")
    _check_based_at(u, w, "second tangent")
    return integrate(u.domain, v.values * w.values * u.density())


def norm(u: ConformalFactor, v: TangentVector) -> float:
    """Metric norm ``sqrt(<v, v>_u)``."""
    return float(np.sqrt(inner(u, v, v)))


def zero_tangent(u: ConformalFactor) -> TangentVector:
    return TangentVector(u, np.zeros(u.domain.node_count))


def random_point(domain: QuadratureDomain, rng: np.random.Generator, amplitude: float = 1.0) -> ConformalFactor:
    """Random point: a normal field of the given amplitude, renormalized."""
    return project_to_space(domain, amplitude * rng.standard_normal(domain.node_count))


def random_tangent(u: ConformalFactor, rng: np.random.Generator, amplitude: float = 1.0) -> TangentVector:
    """Random tangent at ``u``: a normal field projected to the tangent space."""
    return project_to_tangent(u, amplitude * rng.standard_normal(u.domain.node_count))


def load_density(source: str | Path | dict, domain: QuadratureDomain | None = None) -> ConformalFactor:
    """Load a density field from JSON.

    Accepted forms::

        {"domain": <path or inline domain>, "u": [...]}
        {"domain": <path or inline domain>, "density": [...]}

    The ``u`` form must already satisfy the mass constraint; the ``density``
    form is ingested as ``u = log(density)`` and then renormalized.  An
    explicit ``domain`` argument overrides (or supplies) the file's domain.
    """
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            obj = json.load(fh)
    else:
        obj = source
    if domain is None:
        entry = obj.get("domain")
        if entry is None:
            raise ValueError("no domain given inline and none supplied")
        domain = load_domain(entry) if isinstance(entry, str) else domain_from_dict(entry)
    if "u" in obj:
        return ConformalFactor(domain, np.asarray(obj["u"], dtype=float))
    if "density" in obj:
        dens = np.asarray(obj["density"], dtype=float)
        if np.any(dens <= 0.0):
            raise ValueError("density values must be strictly positive")
        return project_to_space(domain, np.log(dens))
    raise ValueError('density file must carry a "u" or "density" field')


def density_to_dict(u: ConformalFactor) -> dict:
    return {"u": u.values.tolist(), "domain": u.domain.to_dict()}
