"""Finite quadrature rules standing in for a closed manifold and its volume measure.

A domain is a set of nodes with strictly positive weights; every integral over
the underlying manifold reduces to a weighted sum over nodes.  The core
geometry never differentiates fields in space, so arbitrary weighted point
clouds are admitted.  Periodic 2D grids additionally record their shape and
spacing for the gradient-metric module, which does need adjacency.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "GridShape",
    "QuadratureDomain",
    "integrate",
    "make_normalized_domain",
    "make_torus_grid",
    "domain_from_dict",
    "load_domain",
]

# Relative slack allowed between the recorded volume and the exact sum of weights.
VOL_TOL = 1e-12

# Longest row for which one einsum over a C-contiguous (k, N) stack rounds
# every row exactly as einsum does on that row alone.
_STACK_EINSUM_NODES = 8192


@dataclass(frozen=True, eq=False)
class GridShape:
    """Shape metadata for a uniform periodic 2D grid.

    ``spacing`` is the cell edge length; cells are squares of area
    ``spacing**2`` equal to the quadrature weight.
    """

    nx: int
    ny: int
    spacing: float


@dataclass(frozen=True, eq=False)
class QuadratureDomain:
    """Node weights representing the volume measure of a closed manifold.

    ``vol`` is the total volume.  It may be supplied explicitly (so that
    round numbers stay exact); it is always validated against the exact sum
    of weights.
    """

    weights: np.ndarray
    vol: float
    grid: GridShape | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError(f"weights must be a 1D array, got shape {w.shape}")
        # Contiguous, so that equal weights give ``integrate`` the same bits.
        w = np.ascontiguousarray(w)
        object.__setattr__(self, "weights", w)
        if w.size < 2:
            raise ValueError(f"need at least 2 nodes, got {w.size}")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("every weight must be finite and strictly positive")
        exact = math.fsum(w.tolist())
        if not abs(self.vol - exact) <= VOL_TOL * exact:
            raise ValueError(
                f"recorded volume {self.vol!r} differs from sum of weights {exact!r}"
            )
        if self.grid is not None:
            if self.grid.nx * self.grid.ny != w.size:
                raise ValueError(
                    f"grid {self.grid.nx}x{self.grid.ny} does not match {w.size} nodes"
                )
            if np.any(w != w[0]):
                raise ValueError("grid domains must have uniform weights")

    @property
    def node_count(self) -> int:
        return self.weights.size

    @property
    def radius(self) -> float:
        """Radius of the round sphere the space immerses into: 2*sqrt(vol)."""
        return 2.0 * math.sqrt(self.vol)

    def check_field(self, field: np.ndarray) -> np.ndarray:
        """Coerce ``field`` to a float array and check its length."""
        f = np.asarray(field, dtype=float)
        if f.shape != (self.node_count,):
            raise ValueError(
                f"field has shape {f.shape}, expected ({self.node_count},)"
            )
        return f

    def to_dict(self) -> dict:
        out: dict = {"weights": self.weights.tolist()}
        if self.grid is not None:
            out["grid"] = {"nx": self.grid.nx, "ny": self.grid.ny}
        return out


def integrate(domain: QuadratureDomain, field) -> float | np.ndarray:
    """Integrate node fields against the domain's measure: sum_i f_i w_i.

    ``field`` is one field of shape (N,), giving a float, or a stack of shape
    (k, N), giving the array of its k row integrals; row i gets exactly the
    value of ``integrate(domain, field[i])``.

    Every integral of a field in the package goes through here (the Gram
    matrix of two stacks in ``stats`` is the one other weighted sum over
    nodes).  It sums with ``np.einsum`` on the calling thread, never with
    numpy's ``dot`` or ``@``: those hand a 65536-node sum to the OpenBLAS
    thread pool, which keeps spinning after it; on a 2-CPU host with
    OpenBLAS 0.3.31 one such sum took 440 us, against 39 us here.  A
    C-contiguous stack of rows of at most 8192 nodes is summed by one
    einsum, which rounds each row exactly as on its own (checked with numpy
    2.4 for every row length up to 8192).  Any other stack is summed row by
    row: einsum blocks a row of more than 8192 nodes differently inside a
    stack than on its own, which changes the last bits.  einsum also sums a
    strided field in another order than a contiguous one, so a
    non-contiguous field, such as a row of a Fortran-ordered stack, is
    summed from a C-contiguous copy: equal fields integrate to the same bits
    whatever their memory layout.  A contiguous field is summed in place.
    """
    f = np.asarray(field, dtype=float)
    if f.ndim not in (1, 2) or f.shape[-1] != domain.node_count:
        raise ValueError(
            f"field has shape {f.shape}, expected ({domain.node_count},) "
            f"or (k, {domain.node_count})"
        )
    if f.ndim == 1:
        return float(np.einsum("j,j->", np.ascontiguousarray(f), domain.weights))
    if f.flags.c_contiguous and f.shape[1] <= _STACK_EINSUM_NODES:
        return np.einsum("ij,j->i", f, domain.weights)
    return np.array([integrate(domain, row) for row in f])


def make_normalized_domain(node_count: int) -> QuadratureDomain:
    """Equal-weight domain with total volume 1/4.

    This is the working normalization in which the sectional curvature
    1/(4*vol) equals 1 and the immersion sphere has radius 1.
    """
    if node_count < 2:
        raise ValueError(f"need at least 2 nodes, got {node_count}")
    weights = np.full(node_count, 0.25 / node_count)
    return QuadratureDomain(weights=weights, vol=0.25)


def make_torus_grid(nx: int, ny: int, total_vol: float) -> QuadratureDomain:
    """Uniform-weight periodic nx-by-ny grid of total volume ``total_vol``.

    Cells are squares, so the spacing is sqrt(total_vol / (nx*ny)).
    """
    if nx < 3 or ny < 3:
        raise ValueError(f"grid needs nx, ny >= 3, got {nx}x{ny}")
    if not total_vol > 0.0:
        raise ValueError(f"total volume must be positive, got {total_vol}")
    n = nx * ny
    spacing = math.sqrt(total_vol / n)
    weights = np.full(n, total_vol / n)
    return QuadratureDomain(weights=weights, vol=float(total_vol), grid=GridShape(nx, ny, spacing))


def domain_from_dict(obj: dict) -> QuadratureDomain:
    """Build a domain from its JSON form: {"weights": [...], "grid": {"nx","ny"}?}."""
    if "weights" not in obj:
        raise ValueError('domain object must carry a "weights" list')
    weights = np.asarray(obj["weights"], dtype=float)
    vol = math.fsum(weights.tolist())
    grid = None
    if obj.get("grid") is not None:
        g = obj["grid"]
        nx, ny = int(g["nx"]), int(g["ny"])
        grid = GridShape(nx, ny, math.sqrt(vol / (nx * ny)))
    return QuadratureDomain(weights=weights, vol=vol, grid=grid)


def load_domain(path: str | Path) -> QuadratureDomain:
    """Load a domain from a JSON file."""
    with open(path) as fh:
        obj = json.load(fh)
    return domain_from_dict(obj)
