"""Geodesic averaging and pairwise distances for sets of densities.

The mean is the usual fixed-point iteration u <- exp_u(sum_i w_i log_u(u_i)),
run inside the regime where all pairwise distances stay clear of the
supremum (pi/2) rho, with step halving whenever a full step would leave the
domain of the exponential map or fail to shrink the residual.

Both work on the fields stacked as a (k, N) array.  In the sphere picture
every two-point quantity is an inner product of the half-densities
h_i = e^(u_i/2), so all pairwise cosines come from one weighted Gram matrix
and all log maps at a point from one array expression.

The mean puts its inputs in an order fixed by their bits before summing
over them, so its result is bitwise invariant under permutation of the
inputs.

The products over the stacked fields are written with ``np.einsum``, which
runs on the calling thread.  As ``@`` they go to BLAS, whose thread pool
wakes for every (k, N) product and keeps spinning after it.  On a 2-CPU
host with OpenBLAS 0.3.31, ``calabi distance`` plus ``calabi mean`` over 64
densities on 4096 nodes then took 1.4 CPU-seconds per wall-second, and the
64 x 64 Gram matrix, 2 ms on one thread, once took 40 ms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainMismatchError, ExpDomainError
# ``distance`` is unused here but stays bound as ``stats.distance``, the
# name through which perfbench's tracer tests reach a rebound import.
from .geodesics import COINCIDENCE_TOL, distance, exp_map  # noqa: F401
from .space import ConformalFactor, TangentVector, norm, project_to_space

__all__ = ["DensitySet", "karcher_mean", "distance_matrix"]

UNIQUENESS_MARGIN = 1e-3


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
            if abs(math.fsum(w.tolist()) - 1.0) > 1e-12:
                raise ValueError("weights must sum to one")
        object.__setattr__(self, "weights", w)

    @property
    def domain(self):
        return self.points[0].domain

    def __len__(self) -> int:
        return len(self.points)


def _half_densities(dset: DensitySet) -> np.ndarray:
    """The (k, N) array of half-densities e^(u_i/2), one row per density."""
    half = np.array([p.values for p in dset.points])
    half *= 0.5
    return np.exp(half, out=half)


def _pair_distances(dset: DensitySet, half: np.ndarray):
    """Distances rho * arccos(cosine) of all pairs i < j, in loop order.

    Returns the pair indices (as ``np.triu_indices``) and the distances.  The
    cosines come from one weighted Gram matrix of the half-densities; pairs
    that ``geodesics.distance`` treats as coincident get distance zero.
    """
    dom = dset.domain
    pairs = np.triu_indices(len(dset), 1)
    cosine = np.einsum("ik,jk->ij", half * dom.weights, half)[pairs] / dom.vol
    d = dom.radius * np.arccos(np.clip(cosine, -1.0, 1.0))
    d[cosine >= 1.0 - COINCIDENCE_TOL] = 0.0
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
    """sum_i w_i log_u(u_i) for every row of ``fields`` at once.

    Row i of the log maps is (e^((u_i-u)/2) - cos_i) * 2 theta_i / sin(theta_i)
    with cos_i = integrate(e^((u_i+u)/2)) / vol and theta_i = arccos(cos_i);
    coincident rows contribute zero.  As in ``geodesics``, both exponentials
    act on sums and differences of fields, so a node where e^u and every
    e^(u_i) underflow still gives finite values.
    """
    dom = u.domain
    logs = np.add(fields, u.values)
    logs *= 0.5
    np.exp(logs, out=logs)
    cosine = np.einsum("ij,j->i", logs, dom.weights) / dom.vol
    theta = np.arccos(np.clip(cosine, -1.0, 1.0))
    coeff = np.divide(
        2.0 * weights * theta,
        np.sin(theta),
        out=np.zeros_like(theta),
        where=cosine < 1.0 - COINCIDENCE_TOL,
    )
    np.subtract(fields, u.values, out=logs)
    logs *= 0.5
    np.exp(logs, out=logs)
    logs -= cosine[:, None]
    return TangentVector(u, np.einsum("i,ij->j", coeff, logs))


def karcher_mean(
    dset: DensitySet, tol: float = 1e-10, max_iter: int = 100
) -> ConformalFactor:
    """Weighted geodesic mean of a density set.

    Iterates from the renormalized weighted average of the fields.  Each
    accepted step strictly decreases the residual |sum_i w_i log_u(u_i)|;
    a step is halved until it stays inside the exponential domain and
    achieves the decrease.

    Raises ConvergenceError after ``max_iter`` iterations and a domain error
    if the inputs are too spread out for the mean to be well posed.
    """
    limit = 0.5 * math.pi * dset.domain.radius - UNIQUENESS_MARGIN
    pairs, d = _pair_distances(dset, _half_densities(dset))
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
    pairs, d = _pair_distances(dset, _half_densities(dset))
    out = np.zeros((len(dset), len(dset)))
    out[pairs] = d
    out[pairs[::-1]] = d
    return out
