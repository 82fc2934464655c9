"""Geodesic averaging and pairwise distances for sets of densities.

The mean is the usual fixed-point iteration u <- exp_u(sum_i w_i log_u(u_i)),
run inside the regime where all pairwise distances stay clear of the
supremum (pi/2) rho, with step halving whenever a full step would leave the
domain of the exponential map or fail to shrink the residual.

Both work on the fields stacked as a (k, N) array.  In the sphere picture
every two-point quantity is an angle between the half-densities
h_i = e^(u_i/2) of ``ConformalFactor.half_density``, so all pairwise cosines
come from one weighted Gram matrix and all log maps at a point from one call
of the chord kernel ``geodesics._half_density_log``, whose chord integrals
``quadrature.integrate`` sums row by row.

The mean puts its inputs in an order fixed by their bits before summing
over them, so its result is bitwise invariant under permutation of the
inputs.

The products over the stacked fields are written with ``np.einsum``, not
``@``, to keep them off the BLAS thread pool; ``quadrature.integrate`` says
why.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainMismatchError, ExpDomainError
from .geodesics import _half_density_log, distance, exp_map
from .space import ConformalFactor, TangentVector, norm, project_to_space

__all__ = ["DensitySet", "karcher_mean", "distance_matrix"]

UNIQUENESS_MARGIN = 1e-3

# Pairs whose Gram cosine is above this take their distance from the chord
# kernel; below it, arccos of the Gram cosine is within about 1e-14 rad.
_GRAM_CUT = 1.0 - 1e-2


@dataclass(frozen=True, eq=False)
class DensitySet:
    """Densities on one shared domain with optional weights summing to one."""

    points: list[ConformalFactor]
    weights: np.ndarray | None = None

    def __post_init__(self):
        if not self.points:
            raise ValueError("need at least one density")
        dom = self.points[0].domain
        if any(p.domain is not dom for p in self.points):
            raise DomainMismatchError("all densities must share one domain")
        if self.weights is None:
            w = np.full(len(self.points), 1.0 / len(self.points))
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (len(self.points),):
                raise ValueError("need one weight per density")
            if np.any(w < 0.0):
                raise ValueError("weights must be nonnegative")
            if not abs(math.fsum(w.tolist()) - 1.0) <= 1e-12:
                raise ValueError("weights must sum to one")
        object.__setattr__(self, "weights", w)

    @property
    def domain(self):
        return self.points[0].domain

    def __len__(self) -> int:
        return len(self.points)


def _pair_distances(dset: DensitySet):
    """Distances of all pairs i < j, in loop order.

    Returns the pair indices (as ``np.triu_indices``) and the distances.  The
    cosines come from one weighted Gram matrix of the rows
    ``ConformalFactor.half_density()``, and a pair's distance is
    rho * arccos(cosine).  arccos loses accuracy as the cosine nears 1, so
    the pairs above ``_GRAM_CUT`` take ``geodesics.distance`` instead.
    """
    dom = dset.domain
    pairs = np.triu_indices(len(dset), 1)
    half = np.array([p.half_density() for p in dset.points])
    cosine = np.einsum("ik,jk->ij", half * dom.weights, half)[pairs] / dom.vol
    near = cosine > _GRAM_CUT
    d = dom.radius * np.arccos(np.where(near, 0.0, cosine))
    for k in np.flatnonzero(near):
        d[k] = distance(dset.points[pairs[0][k]], dset.points[pairs[1][k]]).d
    return pairs, d


def _canonical_rows(dset: DensitySet) -> tuple[np.ndarray, np.ndarray]:
    """The (k, N) array of fields and the weights, rows sorted by their bits.

    Every later sum over the densities then runs in the same order whatever
    order the inputs came in.
    """
    order = sorted(
        range(len(dset)),
        key=lambda i: (dset.points[i].values.tobytes(), dset.weights[i]),
    )
    return np.array([dset.points[i].values for i in order]), dset.weights[order]


def _weighted_mean_tangent(
    u: ConformalFactor, fields: np.ndarray, weights: np.ndarray
) -> TangentVector:
    """sum_i w_i log_u(u_i) for every row of ``fields`` at once; a row equal
    to u contributes exactly zero."""
    theta, _, directions = _half_density_log(u, fields)
    coeff = 2.0 * weights / np.sinc(theta / np.pi)
    return TangentVector(u, np.einsum("i,ij->j", coeff, directions))


def karcher_mean(
    dset: DensitySet, tol: float = 1e-10, max_iter: int = 100
) -> ConformalFactor:
    """Weighted geodesic mean of a density set.

    Iterates from the renormalized weighted average of the fields.  Each
    accepted step strictly decreases the residual |sum_i w_i log_u(u_i)|;
    a step is halved until it stays inside the exponential domain and
    achieves the decrease.

    Raises ConvergenceError after ``max_iter`` iterations, a domain error
    if the inputs are too spread out for the mean to be well posed, and
    ValueError for a negative ``max_iter``.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter}")
    limit = 0.5 * math.pi * dset.domain.radius - UNIQUENESS_MARGIN
    pairs, d = _pair_distances(dset)
    far = np.flatnonzero(d >= limit)
    if far.size:
        k = far[0]
        raise DomainMismatchError(
            f"densities {pairs[0][k]} and {pairs[1][k]} are {float(d[k])} apart; "
            f"the mean needs all pairwise distances below {limit}"
        )

    fields, weights = _canonical_rows(dset)
    current = project_to_space(dset.domain, np.einsum("i,ij->j", weights, fields))
    update = _weighted_mean_tangent(current, fields, weights)
    residual = norm(current, update)
    for _ in range(max_iter):
        if residual <= tol:
            return current
        scale = 1.0
        while True:
            step = TangentVector(current, scale * update.values)
            try:
                candidate = exp_map(current, step)
            except ExpDomainError:
                scale *= 0.5
                if scale < 1e-12:
                    raise
                continue
            cand_update = _weighted_mean_tangent(candidate, fields, weights)
            cand_residual = norm(candidate, cand_update)
            if cand_residual < residual or cand_residual <= tol:
                current, update, residual = candidate, cand_update, cand_residual
                break
            scale *= 0.5
            if scale < 1e-12:
                raise ConvergenceError(
                    f"step halving stalled at residual {residual}", residual=residual
                )
    if residual <= tol:
        return current
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations; last residual {residual}",
        residual=residual,
    )


def distance_matrix(dset: DensitySet) -> np.ndarray:
    """Symmetric pairwise distance matrix with zero diagonal.

    Entries agree with ``geodesics.distance`` up to rounding; the matrix is
    exactly symmetric.
    """
    pairs, d = _pair_distances(dset)
    out = np.zeros((len(dset), len(dset)))
    out[pairs] = d
    out[pairs[::-1]] = d
    return out
