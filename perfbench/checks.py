"""Independent checks of the CLI's outputs.

Every check is computed in plain numpy from the half-density h = e^(u/2) of
the inputs (the sphere picture: points lie on the sphere of radius
sqrt(vol) in the weighted L2 space, and distances are great-circle arcs).
No check calls the function it checks.  Each returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Tolerances, each well above the rounding of the closed forms under test.
DISTANCE_ATOL = 1e-9  # absolute, on distances of order rho
MASS_RTOL = 1e-9  # relative, on integrate(e^u) = vol
KARCHER_RESIDUAL_TOL = 1e-9  # |sum_i w_i log_m(u_i)|_m; the solver stops at 1e-10
CURVE_START_ATOL = 1e-9  # |u(0) - u0|, both from the same renormalization
CURVE_END_ATOL = 1e-8  # |u(t0) - u1|, after a log of the great-circle point


def half_density(weights: np.ndarray, density: np.ndarray) -> np.ndarray:
    """h = e^(u/2) of a raw positive density after renormalization to vol."""
    vol = math.fsum(weights.tolist())
    mass = float(np.dot(density, weights))
    return np.sqrt(density * (vol / mass))


def sphere_radius(weights: np.ndarray) -> float:
    """rho = 2 sqrt(vol), the radius of the immersion sphere of u -> 2 e^(u/2)."""
    return 2.0 * math.sqrt(math.fsum(weights.tolist()))


def chord_distances(weights: np.ndarray, hs: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Arc lengths 2 rho arcsin(|h_i - h|_w / rho) from each row of ``hs`` to ``h``."""
    rho = sphere_radius(weights)
    diff = hs - h
    chord = np.sqrt((diff * diff) @ weights)
    return 2.0 * rho * np.arcsin(np.minimum(1.0, chord / rho))


def chord_matrix(weights: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Pairwise arc lengths between the rows of ``hs``."""
    return np.array([chord_distances(weights, hs, h) for h in hs])


def sphere_log_residual(weights: np.ndarray, hs: np.ndarray, h: np.ndarray) -> float:
    """Norm at h of the mean of the sphere log maps toward the rows of ``hs``.

    With theta_i the angle to h_i, the pushed-forward log vector is
    2 theta_i / sin(theta_i) (h_i - cos(theta_i) h), and its weighted L2
    norm equals the metric norm of the log map at the point.
    """
    rho = sphere_radius(weights)
    theta = chord_distances(weights, hs, h) / rho
    cos = np.cos(theta)
    sinc = np.ones_like(theta)
    moving = theta > 0.0
    sinc[moving] = theta[moving] / np.sin(theta[moving])
    logs = 2.0 * sinc[:, None] * (hs - cos[:, None] * h)
    mean = logs.mean(axis=0)
    return math.sqrt(float(np.dot(mean * mean, weights)))


def _read_json(path: Path) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(Path(path).read_text()), []
    except (OSError, ValueError) as exc:
        return None, [f"{path}: unreadable ({exc})"]


def _csv_rows(path: Path, width: int) -> list[str] | None:
    """Data rows of a CLI CSV file (comment lines and the header skipped), or
    None if it is unreadable or a row has not ``width`` fields."""
    try:
        with open(path) as fh:
            rows = [line for line in fh if not (line.startswith("#") or line.startswith("t,"))]
    except OSError:
        return None
    return rows if all(row.count(",") == width - 1 for row in rows) else None


def _values(row: str) -> np.ndarray:
    return np.array(row.split(","), dtype=float)


def check_distance(weights: np.ndarray, hs: np.ndarray, out_path: Path) -> list[str]:
    """The JSON matrix equals the pairwise great-circle chord arcs."""
    obj, problems = _read_json(out_path)
    if problems:
        return problems
    matrix = np.asarray(obj.get("matrix", []), dtype=float)
    if matrix.shape != (len(hs), len(hs)):
        return [f"distance matrix has shape {matrix.shape}, expected {(len(hs), len(hs))}"]
    err = float(np.max(np.abs(matrix - chord_matrix(weights, hs))))
    if not err <= DISTANCE_ATOL:
        return [f"distance matrix differs from the chord arcs by {err}"]
    return []


def check_mean(weights: np.ndarray, hs: np.ndarray, out_path: Path) -> list[str]:
    """The mean satisfies the mass constraint and is a critical point of the
    sum of squared distances (its mean sphere log map vanishes)."""
    obj, problems = _read_json(out_path)
    if problems:
        return problems
    u = np.asarray(obj.get("u", []), dtype=float)
    if u.shape != weights.shape:
        return [f"mean has {u.size} values, expected {weights.size}"]
    vol = math.fsum(weights.tolist())
    mass = float(np.dot(np.exp(u), weights))
    if not abs(mass - vol) <= MASS_RTOL * vol:
        problems.append(f"mean has mass {mass!r}, expected {vol!r}")
    residual = sphere_log_residual(weights, hs, np.exp(0.5 * u))
    if not residual <= KARCHER_RESIDUAL_TOL:
        problems.append(f"mean log-map residual {residual} exceeds {KARCHER_RESIDUAL_TOL}")
    return problems


def check_interpolate(weights: np.ndarray, hs: np.ndarray, out_dir: Path, frames: int) -> list[str]:
    """Frames integrate to vol, the curve starts and ends at the inputs, and
    the reported distance is the chord arc between them."""
    manifest, problems = _read_json(Path(out_dir) / "manifest.json")
    if problems:
        return problems
    vol = math.fsum(weights.tolist())
    d_expected = float(chord_distances(weights, hs[1:], hs[0])[0])
    d = manifest.get("d")
    if not (isinstance(d, float) and abs(d - d_expected) <= DISTANCE_ATOL):
        problems.append(f"manifest d = {d!r}, chord arc is {d_expected!r}")
    names = manifest.get("frames", [])
    if len(names) != frames:
        return problems + [f"manifest lists {len(names)} frames, expected {frames}"]
    width = weights.size + 1
    for name in names:
        rows = _csv_rows(Path(out_dir) / name, width)
        if rows is None or len(rows) != 1:
            problems.append(f"{name}: expected one row of {width} values")
            continue
        mass = float(np.dot(_values(rows[0])[1:], weights))
        if not abs(mass - vol) <= MASS_RTOL * vol:
            problems.append(f"{name}: density integrates to {mass!r}, expected {vol!r}")
    rows = _csv_rows(Path(out_dir) / "curve.csv", width)
    if rows is None or len(rows) != frames:
        return problems + [f"curve.csv: expected {frames} rows of {width} values"]
    curve = [_values(rows[0]), _values(rows[-1])]
    u0, u1 = 2.0 * np.log(hs[0]), 2.0 * np.log(hs[1])
    start = float(np.max(np.abs(curve[0][1:] - u0)))
    end = float(np.max(np.abs(curve[-1][1:] - u1)))
    if not (curve[0][0] == 0.0 and start <= CURVE_START_ATOL):
        problems.append(f"curve.csv starts {start} away from the first input")
    if not (curve[-1][0] == manifest.get("t0") and end <= CURVE_END_ATOL):
        problems.append(f"curve.csv ends {end} away from the second input")
    return problems


def check_verify(exit_code: int, report_path: Path, nodes: int, seed: int) -> list[str]:
    """The command exits 0 and its report says it passed, for this domain and seed."""
    problems = [] if exit_code == 0 else [f"verify exited with {exit_code}"]
    report, unreadable = _read_json(report_path)
    if unreadable:
        return problems + unreadable
    if report.get("passed") is not True:
        problems.append(f"verify report failed: {report.get('failures')}")
    if report.get("node_count") != nodes or report.get("seed") != seed:
        problems.append("verify report is for another domain or seed")
    return problems
