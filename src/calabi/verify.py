"""Self-contained verification suite exercising every module's invariants.

Each check compares a closed form with an oracle that does not call it: the
curvature tensor with ``finite_difference_curvature``, ``parallel_transport``
with the RK4 ``connection._transport_ode``, Jacobi ``method="closed"`` with
``method="ode"``, the metric with the sphere's pulled-back pairing, and the
grid metric's two forms with each other.  It backs the ``verify`` CLI command.
"""

from __future__ import annotations

import numpy as np

from .connection import (
    SampledCurve,
    _transport_ode,
    cov_deriv,
    curvature_tensor,
    parallel_transport,
    sectional_curvature,
)
from .geodesics import (
    arccot,
    boundary_sequence,
    diameter_sequence,
    distance,
    exp_map,
    geodesic_cauchy,
    log_map,
)
from .gradient_metric import (
    gradient_admissible_interval,
    gradient_curvature,
    gradient_geodesic,
    gradient_inner,
    gradient_inner_gradform,
    laplacian,
    make_grid_potential,
    project_to_grid_tangent,
)
from .immersion import immerse, pushforward
from .jacobi import conjugate_point_scan, jacobi_solve
from .quadrature import QuadratureDomain, integrate, make_torus_grid
from .space import (
    ConformalFactor,
    TangentVector,
    inner,
    norm,
    project_to_space,
    project_to_tangent,
    random_point,
    random_tangent,
)

__all__ = [
    "finite_difference_curvature",
    "immersion_isometry_error",
    "random_admissible_tangent",
    "run_report",
]

FD_CURVATURE_DELTA = 1e-2


def random_admissible_tangent(
    u0: ConformalFactor, rng: np.random.Generator, fill: float = 0.9
) -> TangentVector:
    """Random tangent inside the domain of the exponential map.

    The domain is star-shaped with direction-dependent radius
    rho * arccot(-rho * min(direction)/2), so a random direction is scaled
    to a uniform fraction of at most ``fill`` of that radius.
    """
    raw = random_tangent(u0, rng)
    n = norm(u0, raw)
    rho = u0.domain.radius
    unit = raw.values / n
    bound = rho * arccot(-rho * float(np.min(unit)) / 2.0)
    scale = fill * rng.uniform(0.05, 1.0) * bound / n
    return TangentVector(u0, scale * raw.values)


def immersion_isometry_error(u0: ConformalFactor, t1: TangentVector, t2: TangentVector) -> float:
    """Gap between the pulled-back sphere product of two tangents and their
    metric product <t1, t2>_u.

    The gap is relative to |t1|_u |t2|_u, the Cauchy-Schwarz bound on the
    product, not to the product itself: rounding in both integrals scales
    with the norms, so near-orthogonal tangents would otherwise inflate it.
    """
    pulled = integrate(u0.domain, pushforward(u0, t1) * pushforward(u0, t2))
    direct = inner(u0, t1, t2)
    return abs(pulled - direct) / max(norm(u0, t1) * norm(u0, t2), 1e-300)


def finite_difference_curvature(
    u0: ConformalFactor,
    a: TangentVector,
    b: TangentVector,
    c: TangentVector,
    d: TangentVector,
) -> float:
    """Curvature pairing <(D_a D_b - D_b D_a) C, d> by nested differences.

    Works on the two-parameter geodesic family (q, r) -> exp(q a + r b) with
    the section obtained by projecting ``c`` to each tangent space, in
    central differences of step FD_CURVATURE_DELTA; no use is made of the
    closed curvature tensor.
    """
    u = u0
    delta = FD_CURVATURE_DELTA

    def point(q: float, r: float) -> ConformalFactor:
        vec = TangentVector(u, q * a.values + r * b.values)
        return exp_map(u, vec)

    def section(q: float, r: float) -> np.ndarray:
        return project_to_tangent(point(q, r), c.values).values

    def vel_q(q: float, r: float) -> np.ndarray:
        return (point(q + delta, r).values - point(q - delta, r).values) / (2.0 * delta)

    def vel_r(q: float, r: float) -> np.ndarray:
        return (point(q, r + delta).values - point(q, r - delta).values) / (2.0 * delta)

    dom = u.domain

    def cov(base: ConformalFactor, deriv: np.ndarray, sec: np.ndarray, vel: np.ndarray) -> np.ndarray:
        pairing = integrate(dom, sec * vel * base.density())
        return deriv + 0.5 * sec * vel + pairing / (2.0 * dom.vol)

    def d_r_section(q: float) -> np.ndarray:
        deriv = (section(q, delta) - section(q, -delta)) / (2.0 * delta)
        return cov(point(q, 0.0), deriv, section(q, 0.0), vel_r(q, 0.0))

    def d_q_section(r: float) -> np.ndarray:
        deriv = (section(delta, r) - section(-delta, r)) / (2.0 * delta)
        return cov(point(0.0, r), deriv, section(0.0, r), vel_q(0.0, r))

    dq_dr = cov(
        u,
        (d_r_section(delta) - d_r_section(-delta)) / (2.0 * delta),
        d_r_section(0.0),
        vel_q(0.0, 0.0),
    )
    dr_dq = cov(
        u,
        (d_q_section(delta) - d_q_section(-delta)) / (2.0 * delta),
        d_q_section(0.0),
        vel_r(0.0, 0.0),
    )
    commutator = dq_dr - dr_dq
    return integrate(dom, commutator * d.values * u.density())


def run_report(domain: QuadratureDomain, seed: int = 0) -> dict:
    """Run the full invariant suite on the given domain.

    Returns a report dictionary with one entry per check plus an overall
    ``passed`` flag.  Thresholds for the diameter and boundary sequences are
    asserted at full strength only when the domain is large enough to host
    the concentrating constructions (>= 1024 nodes).
    """
    rng = np.random.default_rng(seed)
    rho = domain.radius
    report: dict = {"node_count": domain.node_count, "vol": domain.vol, "seed": seed}
    failures: list[str] = []

    def check(name: str, ok: bool) -> None:
        if not ok:
            failures.append(name)

    u0 = random_point(domain, rng, amplitude=0.3)
    a = random_tangent(u0, rng)
    b = random_tangent(u0, rng)

    # constant curvature: closed tensor against the finite-difference oracle
    # on an orthonormal pair, where the closed value is -1/(4 vol)
    k_closed = sectional_curvature(u0, a, b)
    ortho_a = TangentVector(u0, a.values / norm(u0, a))
    b_perp = b.values - inner(u0, b, ortho_a) * ortho_a.values
    ortho_b = TangentVector(u0, b_perp / norm(u0, TangentVector(u0, b_perp)))
    r_fd = finite_difference_curvature(u0, ortho_a, ortho_b, ortho_a, ortho_b)
    r_closed = curvature_tensor(u0, ortho_a, ortho_b, ortho_a, ortho_b)
    report["sectional_curvature"] = k_closed
    report["sectional_curvature_expected"] = 1.0 / (4.0 * domain.vol)
    report["curvature_fd_abs_err"] = abs(r_fd - r_closed)
    check("sectional_curvature", abs(k_closed * 4.0 * domain.vol - 1.0) < 1e-12)
    check("curvature_fd", abs(r_fd - r_closed) < 1e-3)

    # geodesic residual: D_t u' vanishes along closed-form geodesics
    worst = 0.0
    for _ in range(10):
        p = random_point(domain, rng, amplitude=0.3)
        v = random_admissible_tangent(p, rng, fill=0.5)
        seg = geodesic_cauchy(p, v)
        span = min(seg.t_max, -seg.t_min)
        t_c = 0.35 * span
        dt = 1e-3
        times = [t_c - dt, t_c, t_c + dt]
        curve = SampledCurve.from_geodesic(seg, times)
        secs = np.array([seg.velocity_values(t) for t in times])
        resid = cov_deriv(curve, secs, 1)
        worst = max(worst, float(np.max(np.abs(resid))))
    report["geodesic_residual_sup"] = worst
    check("geodesic_residual", worst <= 1e-5)

    # exp/log round trip
    worst = 0.0
    for _ in range(100):
        v = random_admissible_tangent(u0, rng)
        w = exp_map(u0, v)
        v_back = log_map(u0, w)
        worst = max(worst, float(np.max(np.abs(v_back.values - v.values))))
    report["exp_log_roundtrip_sup"] = worst
    check("exp_log_roundtrip", worst < 1e-9)

    # distance axioms on random triples
    pts = [random_point(domain, rng, amplitude=0.5) for _ in range(12)]
    min_slack = np.inf
    max_d = 0.0
    for _ in range(200):
        i, j, k = rng.integers(0, len(pts), size=3)
        dij = distance(pts[i], pts[j]).d
        djk = distance(pts[j], pts[k]).d
        dik = distance(pts[i], pts[k]).d
        min_slack = min(min_slack, dij + djk - dik)
        max_d = max(max_d, dij, djk, dik)
    report["triangle_min_slack"] = float(min_slack)
    report["max_distance"] = max_d
    check("triangle_inequality", min_slack >= -1e-12)
    check("distance_below_supremum", max_d < 0.5 * np.pi * rho)

    # Jacobi: dual-method agreement and conservation
    p = random_point(domain, rng, amplitude=0.3)
    v = random_admissible_tangent(p, rng, fill=0.6)
    seg = geodesic_cauchy(p, v)
    j0 = random_tangent(p, rng, amplitude=0.5)
    w0 = random_tangent(p, rng, amplitude=0.5)
    t_probe = min(0.8 * min(seg.t_max, -seg.t_min), 1.0)
    closed = jacobi_solve(seg, j0, w0, t_probe, method="closed")
    ode = jacobi_solve(seg, j0, w0, t_probe, method="ode")
    report["jacobi_dual_sup"] = float(np.max(np.abs(closed - ode)))
    check("jacobi_dual_method", report["jacobi_dual_sup"] < 1e-6)

    scan = conjugate_point_scan(seg)
    report["conjugate_scan"] = scan.to_dict()
    check("no_conjugate_points", not scan.conjugate_found)

    # immersion isometry; closed-form transport against its RK4 oracle
    t1 = random_tangent(u0, rng)
    t2 = random_tangent(u0, rng)
    rel = immersion_isometry_error(u0, t1, t2)
    report["immersion_isometry_rel_err"] = rel
    check("immersion_isometry", rel <= 1e-13)
    norm_sq = integrate(domain, immerse(u0) ** 2)
    check("immersion_norm", abs(norm_sq - rho**2) <= 1e-12 * rho**2)

    v_t = parallel_transport(seg, j0, t_probe)
    v_oracle = _transport_ode(seg, j0, t_probe)
    report["transport_vs_sphere_sup"] = float(np.max(np.abs(v_t.values - v_oracle.values)))
    check("parallel_transport", report["transport_vs_sphere_sup"] < 1e-7)

    # flat gradient metric on a fixed surface grid; the 1/spacing^2 stencil
    # amplifies node noise by ~8/spacing^2, so the test fields are kept small
    grid = make_torus_grid(8, 8, 1.0)
    xs = np.arange(8) / 8.0
    pattern = 0.002 * np.cos(2.0 * np.pi * xs)[:, None] * np.cos(2.0 * np.pi * xs)[None, :]
    phi = make_grid_potential(grid, pattern.reshape(-1))
    ga = project_to_grid_tangent(phi, 0.02 * rng.standard_normal(64))
    gb = project_to_grid_tangent(phi, 0.02 * rng.standard_normal(64))
    gc = project_to_grid_tangent(phi, 0.02 * rng.standard_normal(64))
    gd = project_to_grid_tangent(phi, 0.02 * rng.standard_normal(64))
    forms_gap = abs(gradient_inner(phi, ga, gb) - gradient_inner_gradform(phi, ga, gb))
    curv_pairing = abs(gradient_curvature(phi, ga, gb, gc, gd))
    report["gradient_metric_forms_gap"] = forms_gap
    report["gradient_curvature_pairing"] = curv_pairing
    check("gradient_metric_forms", forms_gap <= 1e-12)
    check("gradient_flatness", curv_pairing <= 1e-6)

    t_hi = gradient_admissible_interval(phi, ga)[1]
    geo_pt = gradient_geodesic(phi, ga, 0.5 * t_hi)
    check("gradient_geodesic_positivity", bool(np.all(1.0 + laplacian(grid, geo_pt.values) > 0.0)))

    # diameter and boundary sequences
    if domain.node_count >= 16:
        base = project_to_space(domain, np.zeros(domain.node_count))
        diam = diameter_sequence(base, 8)
        dists = [d for _, d in diam]
        report["diameter_sequence"] = dists
        report["diameter_best"] = dists[-1]
        check("diameter_below_supremum", all(d < 0.5 * np.pi * rho for d in dists))
        check("diameter_monotone", all(y >= x - 1e-12 for x, y in zip(dists, dists[1:])))
        bnd = boundary_sequence(base, 8)
        times = [t for _, t in bnd]
        report["boundary_sequence"] = times
        report["boundary_best"] = times[-1]
        check("boundary_in_range", all(0.0 < t < 0.5 * np.pi * rho for t in times))
        if domain.node_count >= 1024:
            check("diameter_best", dists[-1] > 0.955 * 0.5 * np.pi * rho)
            check("boundary_best", times[-1] < 0.05 * rho)

    report["failures"] = failures
    report["passed"] = not failures
    return report
