"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Each test prints a single pass/fail line so the whole gate can be read off
one screen (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import math
import time

import numpy as np
import pytest

from calabi import (
    TangentVector,
    boundary_sequence,
    cov_deriv,
    curvature_tensor,
    diameter_sequence,
    distance,
    evaluate,
    exp_map,
    geodesic_cauchy,
    geodesic_dirichlet,
    gradient_admissible_interval,
    gradient_cov_deriv,
    gradient_curvature,
    gradient_geodesic,
    gradient_inner,
    gradient_inner_gradform,
    immerse,
    inner,
    integrate,
    jacobi_solve,
    log_map,
    make_grid_potential,
    make_normalized_domain,
    make_torus_grid,
    norm,
    path_length,
    project_to_grid_tangent,
    project_to_space,
    project_to_tangent,
    pushforward,
    random_point,
    random_tangent,
    sectional_curvature,
)
from calabi.connection import SampledCurve
from calabi.jacobi import conjugate_point_scan
from calabi.verify import (
    finite_difference_curvature,
    immersion_isometry_error,
    random_admissible_tangent,
)

SEED = 20260809

# frozen oracle values for the worked two-node case (see test_geodesics)
EXP_NODE_0 = 0.6105647004975029
EXP_NODE_1 = -1.841817641269531


def report(num, name, ok, details):
    print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({details})")
    assert ok


def orthonormal_pair(u, rng):
    a = random_tangent(u, rng)
    a = TangentVector(u, a.values / norm(u, a))
    b = random_tangent(u, rng)
    b_perp = b.values - inner(u, b, a) * a.values
    return a, TangentVector(u, b_perp / norm(u, TangentVector(u, b_perp)))


def test_criterion_01_constant_curvature():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    exact = True
    fd_err = 0.0
    for n in (3, 16, 256):
        dom = make_normalized_domain(n)
        u = random_point(dom, rng, amplitude=0.4)
        a, b = orthonormal_pair(u, rng)
        exact = exact and sectional_curvature(u, a, b) == 1.0
        fd = finite_difference_curvature(u, a, b, a, b)
        fd_err = max(fd_err, abs(fd - curvature_tensor(u, a, b, a, b)))
    elapsed = time.perf_counter() - start
    ok = exact and fd_err < 1e-3 and elapsed < 10.0
    report(
        1,
        "constant curvature",
        ok,
        f"closed value exactly 1.0: {exact}, fd oracle err {fd_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_geodesic_residual():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    dom = make_normalized_domain(32)
    worst_resid = 0.0
    worst_mass = 0.0
    dt = 1e-3
    for _ in range(100):
        u0 = random_point(dom, rng, amplitude=0.4)
        v0 = random_admissible_tangent(u0, rng, fill=0.5)
        seg = geodesic_cauchy(u0, v0)
        span = min(seg.t_max, -seg.t_min)
        for frac in (-0.35, 0.2, 0.35):
            t_c = frac * span
            times = [t_c - dt, t_c, t_c + dt]
            curve = SampledCurve.from_geodesic(seg, times)
            secs = np.array([seg.velocity_values(t) for t in times])
            resid = cov_deriv(curve, secs, 1)
            worst_resid = max(worst_resid, float(np.max(np.abs(resid))))
            for t in times:
                mass = integrate(dom, evaluate(seg, t).density())
                worst_mass = max(worst_mass, abs(mass - dom.vol) / dom.vol)
    elapsed = time.perf_counter() - start
    ok = worst_resid <= 1e-5 and worst_mass <= 1e-12 and elapsed < 5.0
    report(
        2,
        "geodesic residual",
        ok,
        f"sup |D_t u'| {worst_resid:.2e}, mass drift {worst_mass:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_exp_log_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    dom = make_normalized_domain(64)
    u0 = random_point(dom, rng, amplitude=0.5)
    worst = 0.0
    for _ in range(1000):
        v = random_admissible_tangent(u0, rng)
        back = log_map(u0, exp_map(u0, v))
        worst = max(worst, float(np.max(np.abs(back.values - v.values))))
    d2 = make_normalized_domain(2)
    u0_d2 = project_to_space(d2, np.zeros(2))
    w = project_to_space(d2, np.array([EXP_NODE_0, EXP_NODE_1]))
    v_rec = log_map(u0_d2, w)
    worked = bool(np.allclose(v_rec.values, [1.0, -1.0], atol=1e-9))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and worked and elapsed < 5.0
    report(
        3,
        "exp/log round trip",
        ok,
        f"sup error {worst:.2e} over 1000 draws, worked case {worked}, {elapsed:.1f}s",
    )


def test_criterion_04_distance_axioms():
    rng = np.random.default_rng(SEED)
    dom = make_normalized_domain(48)
    pts = [random_point(dom, rng, amplitude=0.7) for _ in range(16)]
    sym_ok = True
    ident_ok = all(distance(p, p).d <= 1e-12 for p in pts)
    min_slack = math.inf
    max_d = 0.0
    for _ in range(1000):
        i, j, k = rng.integers(0, len(pts), size=3)
        dij = distance(pts[i], pts[j]).d
        sym_ok = sym_ok and dij == distance(pts[j], pts[i]).d
        min_slack = min(
            min_slack, dij + distance(pts[j], pts[k]).d - distance(pts[i], pts[k]).d
        )
        max_d = max(max_d, dij)
    bound = 0.5 * math.pi * dom.radius
    ok = sym_ok and ident_ok and min_slack >= -1e-12 and max_d < bound
    report(
        4,
        "distance axioms",
        ok,
        f"symmetric {sym_ok}, d(u,u)=0 {ident_ok}, min slack {min_slack:.1e}, "
        f"max d {max_d:.3f} < {bound:.3f}",
    )


def test_criterion_05_minimizing_property():
    rng = np.random.default_rng(SEED)
    dom = make_normalized_domain(16)
    worst_gap = math.inf
    for _ in range(100):
        u0 = random_point(dom, rng, amplitude=0.5)
        u1 = random_point(dom, rng, amplitude=0.5)
        seg, t0 = geodesic_dirichlet(u0, u1)
        d = distance(u0, u1).d
        times = np.linspace(0.0, t0, 300)
        eta = rng.standard_normal(16)
        amp = 0.05 * rng.uniform(0.2, 1.0)
        k = int(rng.integers(1, 4))
        pts = []
        for t in times:
            base = evaluate(seg, t)
            noise = project_to_tangent(base, eta).values
            pts.append(
                project_to_space(
                    dom, base.values + amp * math.sin(math.pi * k * t / t0) * noise
                )
            )
        worst_gap = min(worst_gap, path_length(pts, times) - d)
    ok = worst_gap >= -1e-6
    report(
        5,
        "minimizing property",
        ok,
        f"min(length - distance) = {worst_gap:.2e} over 100 perturbed paths",
    )


def test_criterion_06_diameter_and_boundary():
    start = time.perf_counter()
    dom = make_normalized_domain(1024)
    base = project_to_space(dom, np.zeros(1024))
    diam = diameter_sequence(base, 8)
    dists = [d for _, d in diam]
    bnd = boundary_sequence(base, 8)
    times = [t for _, t in bnd]
    elapsed = time.perf_counter() - start
    ok = (
        all(d < 0.5 * math.pi for d in dists)
        and dists[-1] > 1.50
        and all(0.0 < t < 0.5 * math.pi for t in times)
        and times[-1] < 0.05
        and elapsed < 30.0
    )
    report(
        6,
        "diameter and boundary sequences",
        ok,
        f"diameter best {dists[-1]:.4f} > 1.50, boundary best {times[-1]:.4f} < 0.05, "
        f"{elapsed:.1f}s",
    )


def test_criterion_07_jacobi():
    rng = np.random.default_rng(SEED)
    dom = make_normalized_domain(3)
    u0 = random_point(dom, rng, amplitude=0.5)
    v = random_tangent(u0, rng)
    v = TangentVector(u0, v.values / norm(u0, v))
    seg = geodesic_cauchy(u0, v)

    dual_sup = 0.0
    span = min(seg.t_max, -seg.t_min)
    for _ in range(5):
        j0 = random_tangent(u0, rng, amplitude=0.6)
        w0 = random_tangent(u0, rng, amplitude=0.6)
        for frac in (-0.9, -0.45, 0.45, 0.9):
            t = frac * span
            closed = jacobi_solve(seg, j0, w0, t, method="closed")
            ode = jacobi_solve(seg, j0, w0, t, method="ode")
            dual_sup = max(dual_sup, float(np.max(np.abs(closed - ode))))

    j0 = random_tangent(u0, rng, amplitude=0.6)
    w0 = random_tangent(u0, rng, amplitude=0.6)
    pair_w = inner(u0, w0, seg.velocity)
    pair_j = inner(u0, j0, seg.velocity)
    dt = 1e-4
    cons_err = 0.0
    for t_c in (0.3 * seg.t_max, 0.55 * seg.t_max):
        times = [t_c - dt, t_c, t_c + dt]
        fields = np.array([jacobi_solve(seg, j0, w0, t, method="closed") for t in times])
        curve = SampledCurve.from_geodesic(seg, times)
        dtj = cov_deriv(curve, fields, 1)
        u_t = evaluate(seg, t_c)
        u_dot = seg.velocity_values(t_c)
        lhs_w = integrate(dom, u_dot * dtj * u_t.density())
        lhs_j = integrate(dom, u_dot * fields[1] * u_t.density())
        cons_err = max(cons_err, abs(lhs_w - pair_w), abs(lhs_j - (pair_w * t_c + pair_j)))

    scans = []
    for _ in range(5):
        p = random_point(dom, rng, amplitude=0.5)
        w = random_tangent(p, rng)
        w = TangentVector(p, w.values / norm(p, w))
        scans.append(conjugate_point_scan(geodesic_cauchy(p, w)))
    scan_ok = all(
        not s.conjugate_found and s.first_zero == pytest.approx(math.pi, rel=1e-12)
        and s.first_zero > s.t_max
        for s in scans
    )
    ok = dual_sup <= 1e-6 and cons_err <= 1e-6 and scan_ok
    report(
        7,
        "jacobi fields",
        ok,
        f"closed-vs-ode sup {dual_sup:.2e}, conservation err {cons_err:.2e}, "
        f"no conjugate points {scan_ok}",
    )


def test_criterion_08_immersion_isometry():
    rng = np.random.default_rng(SEED)
    dom = make_normalized_domain(64)
    rel_err = 0.0
    for _ in range(50):
        u = random_point(dom, rng, amplitude=0.6)
        v = random_tangent(u, rng)
        w = random_tangent(u, rng)
        rel_err = max(rel_err, immersion_isometry_error(u, v, w))
    # one exactly orthogonal pair, where <v, w>_u itself is at rounding level
    w_perp = TangentVector(u, w.values - inner(u, v, w) / inner(u, v, v) * v.values)
    rel_err = max(rel_err, immersion_isometry_error(u, v, w_perp))

    plane_resid = 0.0
    for _ in range(10):
        u0 = random_point(dom, rng, amplitude=0.4)
        v0 = random_admissible_tangent(u0, rng, fill=0.8)
        seg = geodesic_cauchy(u0, v0)
        f0 = immerse(u0)
        g0 = pushforward(u0, v0)
        nf = integrate(dom, f0 * f0)
        ng = integrate(dom, g0 * g0)
        for frac in (-0.9, 0.5, 0.95):
            t = frac * (seg.t_max if frac > 0 else -seg.t_min)
            f_t = immerse(evaluate(seg, t))
            resid = (
                f_t
                - integrate(dom, f_t * f0) / nf * f0
                - integrate(dom, f_t * g0) / ng * g0
            )
            plane_resid = max(plane_resid, math.sqrt(integrate(dom, resid**2)))
    ok = rel_err <= 1e-13 and plane_resid <= 1e-10
    report(
        8,
        "immersion isometry",
        ok,
        f"pullback rel err {rel_err:.2e}, great-circle residual {plane_resid:.2e}",
    )


def test_criterion_09_gradient_metric():
    rng = np.random.default_rng(SEED)
    grid = make_torus_grid(8, 8, 1.0)
    xs = np.arange(8) / 8.0
    pattern = 0.002 * np.cos(2.0 * np.pi * xs)[:, None] * np.cos(2.0 * np.pi * xs)[None, :]
    phi0 = make_grid_potential(grid, pattern.reshape(-1))

    psi0 = project_to_grid_tangent(phi0, 0.02 * rng.standard_normal(64))
    energy = gradient_inner(phi0, psi0, psi0)
    t_hi = gradient_admissible_interval(phi0, psi0)[1]
    dt = min(0.1 * t_hi, 0.05)
    times = [-dt, 0.0, dt]
    potentials = [gradient_geodesic(phi0, psi0, t) if t else phi0 for t in times]
    sections = np.array([(energy / grid.vol) * t + psi0.values for t in times])
    cov_resid = float(np.max(np.abs(gradient_cov_deriv(times, potentials, sections, 1))))

    curv = 0.0
    forms = 0.0
    for _ in range(5):
        args = [
            project_to_grid_tangent(phi0, 0.02 * rng.standard_normal(64))
            for _ in range(4)
        ]
        curv = max(curv, abs(gradient_curvature(phi0, *args)))
        forms = max(
            forms,
            abs(gradient_inner(phi0, args[0], args[1]) - gradient_inner_gradform(phi0, args[0], args[1])),
        )
    ok = cov_resid <= 1e-10 and curv <= 1e-6 and forms <= 1e-12
    report(
        9,
        "gradient metric",
        ok,
        f"geodesic D_t phi' {cov_resid:.2e}, curvature pairing {curv:.2e}, "
        f"metric forms gap {forms:.2e}",
    )


def test_criterion_10_normalization_bridge():
    rng = np.random.default_rng(SEED)
    dom = make_normalized_domain(24)
    wts = dom.weights
    assert dom.radius == 1.0

    def ref_speed(u0v, v0v):
        h = np.exp(0.5 * u0v)
        return math.sqrt(float(np.einsum("j,j->", (v0v * h) * (v0v * h), wts)))

    def ref_point(u0v, v0v, t):
        s = ref_speed(u0v, v0v)
        return u0v + 2.0 * np.log(np.cos(s * t) + v0v / (2.0 * s) * np.sin(s * t))

    def ref_interval(u0v, v0v):
        s = ref_speed(u0v, v0v)
        t_max = np.arctan2(1.0, -v0v.min() / (2.0 * s)) / s
        t_min = -np.arctan2(1.0, v0v.max() / (2.0 * s)) / s
        return t_min, t_max

    def ref_bound(u0v, v0v):
        s = ref_speed(u0v, v0v)
        return np.arctan2(1.0, -v0v.min() / (2.0 * s))

    def ref_chord_ratio(u0v, u1v):
        # |h1 - h0| / rho with h = e^(u/2), from the half-chord at each node
        chord = np.exp(np.maximum(u1v, u0v)) * np.expm1(-0.5 * np.abs(u1v - u0v)) ** 2
        return math.sqrt(float(np.einsum("j,j->", chord, wts)))

    def ref_angle(u0v, u1v):
        return 2.0 * float(np.arcsin(ref_chord_ratio(u0v, u1v)))

    def ref_cosine(u0v, u1v):
        r = ref_chord_ratio(u0v, u1v)
        return 1.0 - 2.0 * r * r

    def ref_log(u0v, u1v):
        r = ref_chord_ratio(u0v, u1v)
        th = 2.0 * np.arcsin(r)
        return (np.expm1(0.5 * (u1v - u0v)) + 2.0 * r * r) * (2.0 / np.sinc(th / np.pi))

    all_equal = True
    for _ in range(100):
        u0 = random_point(dom, rng, amplitude=0.5)
        v0 = random_admissible_tangent(u0, rng, fill=0.8)
        seg = geodesic_cauchy(u0, v0)
        t_min, t_max = ref_interval(u0.values, v0.values)
        all_equal &= seg.t_min == t_min and seg.t_max == t_max
        t = float(rng.uniform(0.9 * t_min, 0.9 * t_max))
        all_equal &= bool(
            np.array_equal(evaluate(seg, t).values, ref_point(u0.values, v0.values, t))
        )
        w = exp_map(u0, v0)
        all_equal &= bool(
            np.array_equal(w.values, ref_point(u0.values, v0.values, 1.0))
        )
        all_equal &= bool(
            np.array_equal(log_map(u0, w).values, ref_log(u0.values, w.values))
        )
        u1 = random_point(dom, rng, amplitude=0.5)
        rep = distance(u0, u1)
        all_equal &= rep.cosine == ref_cosine(u0.values, u1.values)
        all_equal &= rep.d == ref_angle(u0.values, u1.values)
        _, t0 = geodesic_dirichlet(u0, u1)
        all_equal &= t0 == ref_angle(u0.values, u1.values)
        try:
            from calabi import ExpDomainError

            too_big = TangentVector(
                u0, 1.01 * (ref_bound(u0.values, v0.values) / seg.speed) * v0.values
            )
            exp_map(u0, too_big)
            all_equal = False  # should have raised
        except ExpDomainError as err:
            all_equal &= err.bound == float(
                ref_bound(u0.values, 1.01 * (ref_bound(u0.values, v0.values) / seg.speed) * v0.values)
            )
    report(
        10,
        "normalization bridge",
        all_equal,
        "general-radius formulas match the unit-radius forms bit-for-bit on 100 draws",
    )
