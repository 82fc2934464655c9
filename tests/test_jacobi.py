import math

import numpy as np
import pytest

from calabi import (
    ConstraintError,
    SampledCurve,
    TangentVector,
    conjugate_point_scan,
    cov_deriv,
    evaluate,
    exp_map,
    geodesic_cauchy,
    inner,
    integrate,
    jacobi_closed_form,
    jacobi_ode_rhs,
    jacobi_solve,
    make_normalized_domain,
    norm,
    parallel_transport,
    random_point,
    random_tangent,
    zero_tangent,
)
from calabi import jacobi
from calabi.connection import _transport_ode
from calabi.verify import random_admissible_tangent


def unit_geodesic(dom, rng, amplitude=0.4):
    u0 = random_point(dom, rng, amplitude=amplitude)
    v = random_tangent(u0, rng)
    v = TangentVector(u0, v.values / norm(u0, v))
    return geodesic_cauchy(u0, v)


def normal_tangent(seg, rng, amplitude=1.0):
    u0 = seg.start
    w = random_tangent(u0, rng, amplitude=amplitude)
    coef = inner(u0, w, seg.velocity) / seg.speed**2
    return TangentVector(u0, w.values - coef * seg.velocity.values)


def test_zero_data_gives_zero_field(rng, d3):
    seg = unit_geodesic(d3, rng)
    z = zero_tangent(seg.start)
    for method in ("closed", "ode"):
        out = jacobi_solve(seg, z, z, 0.5 * seg.t_max, method=method)
        assert np.allclose(out, 0.0, atol=1e-12)


def test_velocity_is_a_jacobi_field(rng, d16):
    seg = unit_geodesic(d16, rng)
    z = zero_tangent(seg.start)
    for frac in (0.3, 0.7, -0.5):
        t = frac * (seg.t_max if frac > 0 else -seg.t_min)
        out = jacobi_solve(seg, seg.velocity, z, t, method="closed")
        assert np.allclose(out, seg.velocity_values(t), atol=1e-12)


def test_ode_rhs_velocity_identity(rng, d16):
    # J = u' has plain derivatives J' = u'' and J'' = u''' = -u' u''
    seg = unit_geodesic(d16, rng)
    sigma_sq = seg.speed**2
    for t in (0.2 * seg.t_max, 0.6 * seg.t_max):
        u_dot = seg.velocity_values(t)
        u_ddot = -0.5 * u_dot**2 - sigma_sq / (2.0 * seg.domain.vol)
        u_dddot = -u_dot * u_ddot
        rhs = jacobi_ode_rhs(seg, t, u_dot, u_ddot, velocity_pairing=0.0)
        assert float(np.max(np.abs(u_dddot - rhs))) < 1e-10


def test_ode_rhs_normal_reduction(rng, d16):
    seg = unit_geodesic(d16, rng)
    j = rng.standard_normal(16)
    dj = rng.standard_normal(16)
    t = 0.4 * seg.t_max
    rhs = jacobi_ode_rhs(seg, t, j, dj, velocity_pairing=0.0)
    assert np.array_equal(rhs, -seg.velocity_values(t) * dj)


def test_normal_field_from_zero_origin_is_sine_shaped(rng, d3):
    seg = unit_geodesic(d3, rng)
    w = normal_tangent(seg, rng)
    half0 = seg.start.half_density()
    for frac in (0.25, 0.6, 0.9):
        t = frac * seg.t_max
        out = jacobi_solve(seg, zero_tangent(seg.start), w, t, method="closed")
        expected = math.sin(t) * half0 * w.values / evaluate(seg, t).half_density()
        assert np.allclose(out, expected, atol=1e-12)


def test_closed_form_object_matches_solver(rng, d3):
    seg = unit_geodesic(d3, rng)
    j0 = normal_tangent(seg, rng)
    w0 = normal_tangent(seg, rng)
    form = jacobi_closed_form(seg, j0, w0)
    for frac in (0.2, 0.5, 0.8):
        t = frac * seg.t_max
        assert np.allclose(
            form.evaluate(t), jacobi_solve(seg, j0, w0, t, method="closed"), atol=1e-13
        )


def test_closed_form_requires_normal_data(rng, d3):
    seg = unit_geodesic(d3, rng)
    with pytest.raises(ConstraintError, match="normal"):
        jacobi_closed_form(seg, seg.velocity, zero_tangent(seg.start))


def test_closed_form_fields_stay_tangent(rng, d16):
    seg = unit_geodesic(d16, rng)
    form = jacobi_closed_form(seg, normal_tangent(seg, rng), normal_tangent(seg, rng))
    dom = seg.domain
    for frac in (0.1, 0.5, 0.9, -0.6):
        t = frac * (seg.t_max if frac > 0 else -seg.t_min)
        field = form.evaluate(t)
        pairing = integrate(dom, field * evaluate(seg, t).density())
        assert abs(pairing) <= 1e-8


def test_closed_vs_ode_branch(rng, d3):
    seg = unit_geodesic(d3, rng)
    j0 = random_tangent(seg.start, rng, amplitude=0.7)
    w0 = random_tangent(seg.start, rng, amplitude=0.7)
    span = min(seg.t_max, -seg.t_min, 2.0)
    for frac in (0.9, 0.4, -0.9):
        t = frac * span
        closed = jacobi_solve(seg, j0, w0, t, method="closed")
        ode = jacobi_solve(seg, j0, w0, t, method="ode")
        assert float(np.max(np.abs(closed - ode))) < 1e-6


def test_unknown_method(rng, d3):
    seg = unit_geodesic(d3, rng)
    constant = geodesic_cauchy(seg.start, zero_tangent(seg.start))
    z = zero_tangent(seg.start)
    for s in (seg, constant):
        with pytest.raises(ValueError, match="unknown method"):
            jacobi_solve(s, z, z, 0.1, method="rk2")


def test_step_count_does_not_depend_on_speed(rng, d16, monkeypatch):
    seg = unit_geodesic(d16, rng)
    slow = geodesic_cauchy(seg.start, TangentVector(seg.start, 1e-3 * seg.velocity.values))
    j0 = random_tangent(seg.start, rng, amplitude=0.6)
    w0 = random_tangent(seg.start, rng, amplitude=0.6)
    calls = []
    rhs = jacobi.jacobi_ode_rhs

    def counting_rhs(*args):
        calls.append(None)
        return rhs(*args)

    monkeypatch.setattr(jacobi, "jacobi_ode_rhs", counting_rhs)
    t = 0.7 * seg.t_max
    counts = []
    for path, time in ((seg, t), (slow, 1e3 * t)):
        calls.clear()
        jacobi_solve(path, j0, w0, time, method="ode")
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts[0] == counts[1]


@pytest.mark.parametrize("node_count", [3, 16, 1024])
def test_oracles_hold_near_the_end_of_the_interval(rng, node_count):
    seg = unit_geodesic(make_normalized_domain(node_count), rng)
    j0 = random_tangent(seg.start, rng, amplitude=0.6)
    w0 = random_tangent(seg.start, rng, amplitude=0.6)
    for t in (0.95 * seg.t_max, 0.95 * seg.t_min):
        moved = parallel_transport(seg, j0, t)
        oracle = _transport_ode(seg, j0, t)
        assert float(np.max(np.abs(moved.values - oracle.values))) < 1e-7
        closed = jacobi_solve(seg, j0, w0, t, method="closed")
        ode = jacobi_solve(seg, j0, w0, t, method="ode")
        assert float(np.max(np.abs(closed - ode))) < 1e-6


def test_constant_geodesic_flat_line(rng, d3):
    u0 = random_point(d3, rng)
    seg = geodesic_cauchy(u0, zero_tangent(u0))
    j0 = random_tangent(u0, rng)
    w0 = random_tangent(u0, rng)
    out = jacobi_solve(seg, j0, w0, 2.5)
    assert np.allclose(out, j0.values + 2.5 * w0.values, atol=1e-14)


def _jacobi_samples(seg, j0, w0, t_c, dt, half_window):
    times = [t_c + k * dt for k in range(-half_window, half_window + 1)]
    fields = np.array([jacobi_solve(seg, j0, w0, t, method="closed") for t in times])
    return times, fields


def test_conservation_laws(rng, d16):
    seg = unit_geodesic(d16, rng)
    j0 = random_tangent(seg.start, rng, amplitude=0.6)
    w0 = random_tangent(seg.start, rng, amplitude=0.6)
    u0 = seg.start
    pair_w = inner(u0, w0, seg.velocity)
    pair_j = inner(u0, j0, seg.velocity)
    dt = 1e-4
    dom = seg.domain
    for t_c in (0.3 * seg.t_max, 0.6 * seg.t_max):
        times, fields = _jacobi_samples(seg, j0, w0, t_c, dt, 1)
        curve = SampledCurve.from_geodesic(seg, times)
        dtj = cov_deriv(curve, fields, 1)
        u_t = evaluate(seg, t_c)
        u_dot = seg.velocity_values(t_c)
        lhs_w = integrate(dom, u_dot * dtj * u_t.density())
        assert lhs_w == pytest.approx(pair_w, abs=1e-6)
        lhs_j = integrate(dom, u_dot * fields[1] * u_t.density())
        assert lhs_j == pytest.approx(pair_w * t_c + pair_j, abs=1e-6)


def test_jacobi_equation_residual(rng, d16):
    seg = unit_geodesic(d16, rng, amplitude=0.3)
    j0 = random_tangent(seg.start, rng, amplitude=0.4)
    w0 = random_tangent(seg.start, rng, amplitude=0.4)
    dt = 1e-3
    t_c = 0.35 * seg.t_max
    times, fields = _jacobi_samples(seg, j0, w0, t_c, dt, 2)
    dom = seg.domain

    def dtj_at(i):
        window = [times[i - 1], times[i], times[i + 1]]
        curve = SampledCurve.from_geodesic(seg, window)
        return cov_deriv(curve, fields[i - 1 : i + 2], 1)

    inner_times = [times[1], times[2], times[3]]
    curve = SampledCurve.from_geodesic(seg, inner_times)
    first = np.array([dtj_at(i) for i in (1, 2, 3)])
    second = cov_deriv(curve, first, 1, tangent_tol=1e-4)

    u_t = evaluate(seg, t_c)
    u_dot = seg.velocity_values(t_c)
    j_t = fields[2]
    pair_ju = integrate(dom, j_t * u_dot * u_t.density())
    sigma_sq = seg.speed**2
    r_field = (pair_ju * u_dot - sigma_sq * j_t) / (4.0 * dom.vol)
    assert float(np.max(np.abs(second - r_field))) <= 1e-4


def test_harmonic_profile_identity(rng, d16):
    seg = unit_geodesic(d16, rng)
    j0 = normal_tangent(seg, rng)
    w0 = normal_tangent(seg, rng)
    dt = 1e-4
    t_c = 0.5 * seg.t_max

    def profile(t):
        return evaluate(seg, t).half_density() * jacobi_solve(seg, j0, w0, t, method="closed")

    y_minus, y_0, y_plus = profile(t_c - dt), profile(t_c), profile(t_c + dt)
    y_second = (y_plus - 2.0 * y_0 + y_minus) / dt**2
    assert float(np.max(np.abs(y_second + y_0))) <= 1e-6


def test_conjugate_scan_reports_none(rng, d3):
    for _ in range(5):
        seg = unit_geodesic(d3, rng)
        scan = conjugate_point_scan(seg)
        assert not scan.conjugate_found
        assert scan.first_zero == pytest.approx(math.pi, rel=1e-15)
        assert scan.margin >= math.pi / 2.0
        d = scan.to_dict()
        assert set(d) == {"t_max", "first_zero", "conjugate_found", "margin"}
        assert d["conjugate_found"] is False


def test_conjugate_scan_rejects_constant(rng, d3):
    u0 = random_point(d3, rng)
    with pytest.raises(ValueError, match="nonconstant"):
        conjugate_point_scan(geodesic_cauchy(u0, zero_tangent(u0)))


def test_variation_field_matches_jacobi(rng, d16):
    u0 = random_point(d16, rng, amplitude=0.4)
    v0 = random_admissible_tangent(u0, rng, fill=0.5)
    seg = geodesic_cauchy(u0, v0)
    w = random_tangent(u0, rng, amplitude=0.5)
    h = 1e-3
    for t in (0.3, 0.6):
        if not seg.t_min < t < seg.t_max:
            continue
        plus = exp_map(u0, TangentVector(u0, t * (v0.values + h * w.values)))
        minus = exp_map(u0, TangentVector(u0, t * (v0.values - h * w.values)))
        variation = (plus.values - minus.values) / (2.0 * h)
        solved = jacobi_solve(seg, zero_tangent(u0), w, t, method="closed")
        assert float(np.max(np.abs(variation - solved))) <= 1e-4


def test_differential_of_exp_stays_injective(rng, d16):
    u0 = random_point(d16, rng, amplitude=0.4)
    v0 = random_admissible_tangent(u0, rng, fill=0.7)
    seg = geodesic_cauchy(u0, v0)
    for _ in range(5):
        w = normal_tangent(seg, rng)
        for frac in (0.2, 0.5, 0.9):
            t = frac * seg.t_max
            field = jacobi_solve(seg, zero_tangent(u0), w, t, method="closed")
            u_t = evaluate(seg, t)
            value = integrate(seg.domain, field * field * u_t.density())
            assert value > 1e-10
