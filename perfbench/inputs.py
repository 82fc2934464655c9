"""Seeded input files for the benchmark workloads.

Everything here is plain numpy and json: the program under test only ever
sees the files written below, and the same seed gives byte-identical files.

Densities are written in the raw ``density`` form (positive, unnormalized),
so every load goes through the program's renormalization.  Each density file
names its domain by an absolute path, because relative domain paths resolve
against the working directory of the process that reads them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import chord_matrix, half_density, sphere_radius

ENSEMBLE_SIZE = 64
ENSEMBLE_NODES = 4096
INTERPOLATE_NODES = 65536
INTERPOLATE_FRAMES = 8
VERIFY_NODES = 1024

# Pairwise distances must stay this far below the Karcher limit (pi/2) rho.
KARCHER_MARGIN = 1e-3


@dataclass(frozen=True)
class Inputs:
    """Generated files plus the reference data the output checks need.

    ``half_densities`` holds h = e^(u/2) of each renormalized input, one row
    per density file.  ``verify_seeds`` holds one CLI seed per verify job.
    """

    domain_path: Path | None = None
    density_paths: list[Path] = field(default_factory=list)
    weights: np.ndarray | None = None
    half_densities: np.ndarray | None = None
    verify_seeds: list[int] = field(default_factory=list)


def _weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """Non-uniform positive node weights with total volume close to one."""
    return rng.uniform(0.5, 1.5, n) / n


def _smooth_fields(rng: np.random.Generator, count: int, n: int, amplitude: float) -> np.ndarray:
    """``count`` random low-frequency fields on n nodes of a circle, plus noise."""
    x = np.arange(n) / n
    modes = np.arange(1, 7)
    a = rng.standard_normal((count, modes.size)) * amplitude / modes
    b = rng.standard_normal((count, modes.size)) * amplitude / modes
    phase = 2.0 * np.pi * np.outer(modes, x)
    fields = a @ np.cos(phase) + b @ np.sin(phase)
    return fields + 0.05 * amplitude * rng.standard_normal((count, n))


def _write_densities(workdir: Path, weights: np.ndarray, densities: np.ndarray) -> Inputs:
    domain_path = (workdir / "domain.json").resolve()
    domain_path.write_text(json.dumps({"weights": weights.tolist()}))
    paths = []
    for i, dens in enumerate(densities):
        path = workdir / f"density_{i:03d}.json"
        path.write_text(json.dumps({"domain": str(domain_path), "density": dens.tolist()}))
        paths.append(path)
    hs = np.array([half_density(weights, d) for d in densities])
    return Inputs(domain_path=domain_path, density_paths=paths, weights=weights, half_densities=hs)


def make_ensemble(seed: int, workdir: Path, size: int = ENSEMBLE_SIZE, nodes: int = ENSEMBLE_NODES) -> Inputs:
    """64 densities on one shared 4096-node domain, with every pairwise
    distance inside the regime where the Karcher mean is well posed."""
    rng = np.random.default_rng([seed, 1])
    weights = _weights(rng, nodes)
    fields = _smooth_fields(rng, size, nodes, amplitude=0.6)
    densities = np.exp(fields) * rng.uniform(0.5, 2.0, (size, 1))
    inputs = _write_densities(workdir, weights, densities)
    widest = float(np.max(chord_matrix(weights, inputs.half_densities)))
    limit = 0.5 * math.pi * sphere_radius(weights) - KARCHER_MARGIN
    if not widest < limit:
        raise ValueError(f"seed {seed}: ensemble spread {widest} reaches the Karcher limit {limit}")
    return inputs


def make_interpolate(seed: int, workdir: Path, nodes: int = INTERPOLATE_NODES) -> Inputs:
    """Two distinct densities on a 65536-node domain."""
    rng = np.random.default_rng([seed, 2])
    weights = _weights(rng, nodes)
    densities = np.exp(_smooth_fields(rng, 2, nodes, amplitude=0.8))
    return _write_densities(workdir, weights, densities)


def make_verify(seed: int, jobs: int) -> Inputs:
    """``verify`` takes only a node count and a seed: one derived seed per job."""
    rng = np.random.default_rng([seed, 3])
    return Inputs(verify_seeds=[int(s) for s in rng.integers(0, 2**31 - 1, size=jobs)])
