import numpy as np
import pytest

from calabi import (
    ConformalFactor,
    ConstraintError,
    DomainMismatchError,
    QuadratureDomain,
    SampledCurve,
    TangentVector,
    cov_deriv,
    curvature_tensor,
    evaluate,
    exp_map,
    geodesic_cauchy,
    inner,
    integrate,
    norm,
    parallel_transport,
    project_to_space,
    project_to_tangent,
    random_point,
    random_tangent,
    sectional_curvature,
)
from calabi.connection import _transport_ode
from calabi.verify import finite_difference_curvature, random_admissible_tangent


def constant_curve(u, dt=1e-3):
    return SampledCurve(times=[-dt, 0.0, dt], points=[u, u, u])


def orthonormal_pair(u, rng):
    a = random_tangent(u, rng)
    a = TangentVector(u, a.values / norm(u, a))
    b = random_tangent(u, rng)
    b_perp = b.values - inner(u, b, a) * a.values
    b = TangentVector(u, b_perp / norm(u, TangentVector(u, b_perp)))
    return a, b


def test_cov_deriv_constant_everything(rng, d16):
    u = random_point(d16, rng)
    v = random_tangent(u, rng)
    curve = constant_curve(u)
    secs = np.tile(v.values, (3, 1))
    assert np.allclose(cov_deriv(curve, secs, 1), 0.0, atol=1e-14)


def test_cov_deriv_reduces_to_time_derivative(rng, d16):
    u = random_point(d16, rng)
    w = random_tangent(u, rng)
    dt = 1e-3
    curve = constant_curve(u, dt)
    secs = np.array([t * w.values for t in (-dt, 0.0, dt)])
    assert np.allclose(cov_deriv(curve, secs, 1), w.values, atol=1e-12)


def test_cov_deriv_annihilates_geodesic_velocity(rng, d16):
    for _ in range(5):
        u0 = random_point(d16, rng, amplitude=0.4)
        v0 = random_admissible_tangent(u0, rng, fill=0.6)
        seg = geodesic_cauchy(u0, v0)
        t_c = 0.3 * seg.t_max
        dt = 1e-3
        times = [t_c - dt, t_c, t_c + dt]
        curve = SampledCurve.from_geodesic(seg, times)
        secs = np.array([seg.velocity_values(t) for t in times])
        resid = cov_deriv(curve, secs, 1)
        assert float(np.max(np.abs(resid))) <= 1e-6


def test_cov_deriv_errors(rng, d16):
    u = random_point(d16, rng)
    v = random_tangent(u, rng)
    curve = constant_curve(u)
    secs = np.tile(v.values, (3, 1))
    with pytest.raises(IndexError, match="interior"):
        cov_deriv(curve, secs, 0)
    bad = secs.copy()
    bad[1] = bad[1] + 1.0  # constant offset breaks tangency
    with pytest.raises(ConstraintError, match="not tangent"):
        cov_deriv(curve, bad, 1)


def test_sampled_curve_validation(rng, d16):
    u = random_point(d16, rng)
    with pytest.raises(ValueError, match="at least 3"):
        SampledCurve(times=[0.0, 1.0], points=[u, u])
    with pytest.raises(ValueError, match="strictly increasing"):
        SampledCurve(times=[0.0, 0.0, 1.0], points=[u, u, u])
    with pytest.raises(ValueError, match="strictly increasing"):
        SampledCurve(times=[0.0, np.nan, 1.0], points=[u, u, u])


def test_cov_deriv_rejects_nan_section(rng, d16):
    # a NaN pairing compares False against the tolerance, so the check must
    # accept only a pairing that passes
    u0 = random_point(d16, rng, amplitude=0.4)
    seg = geodesic_cauchy(u0, random_admissible_tangent(u0, rng, fill=0.6))
    times = [-1e-3, 0.0, 1e-3]
    curve = SampledCurve.from_geodesic(seg, times)
    secs = np.array([seg.velocity_values(t) for t in times])
    secs[1, 3] = np.nan
    with pytest.raises(ConstraintError, match="not tangent"):
        cov_deriv(curve, secs, 1)


def test_transport_at_zero_is_identity(rng, d16):
    u0 = random_point(d16, rng, amplitude=0.4)
    v0 = random_admissible_tangent(u0, rng)
    seg = geodesic_cauchy(u0, v0)
    w = random_tangent(u0, rng)
    out = parallel_transport(seg, w, 0.0)
    assert np.array_equal(out.values, w.values)


def test_transport_of_velocity_is_velocity(rng, d16):
    u0 = random_point(d16, rng, amplitude=0.4)
    v0 = random_admissible_tangent(u0, rng, fill=0.6)
    seg = geodesic_cauchy(u0, v0)
    t = 0.7 * seg.t_max
    out = parallel_transport(seg, v0, t)
    assert np.allclose(out.values, seg.velocity_values(t), atol=1e-9)


def test_transport_preserves_norm(rng, d16):
    u0 = random_point(d16, rng, amplitude=0.4)
    v0 = random_admissible_tangent(u0, rng, fill=0.6)
    seg = geodesic_cauchy(u0, v0)
    w = random_tangent(u0, rng)
    t = 0.6 * seg.t_max
    out = parallel_transport(seg, w, t)
    before = inner(u0, w, w)
    after = inner(evaluate(seg, t), out, out)
    assert after == pytest.approx(before, abs=1e-8)


def test_transport_matches_sphere_oracle(rng, d16):
    u0 = random_point(d16, rng, amplitude=0.4)
    v0 = random_admissible_tangent(u0, rng, fill=0.6)
    seg = geodesic_cauchy(u0, v0)
    w = random_tangent(u0, rng)
    for frac in (0.4, -0.5):
        t = frac * (seg.t_max if frac > 0 else -seg.t_min)
        out = parallel_transport(seg, w, t)
        oracle = _transport_ode(seg, w, t)
        assert float(np.max(np.abs(out.values - oracle.values))) < 1e-7


def test_transport_stays_finite_where_the_density_underflows(rng, d16):
    # e^(u0/2) is 0.0 at node 3 and about 1e-150 at node 7
    raw = 0.3 * rng.standard_normal(16)
    raw[3], raw[7] = -1600.0, -690.0
    u0 = project_to_space(d16, raw)
    seg = geodesic_cauchy(u0, random_admissible_tangent(u0, rng, fill=0.6))
    w = random_tangent(u0, rng)
    t = 0.5 * seg.t_max
    out = parallel_transport(seg, w, t)
    assert np.all(np.isfinite(out.values))
    assert float(np.max(np.abs(out.values - _transport_ode(seg, w, t).values))) < 1e-7


def test_transport_rejects_vector_from_another_domain(rng, d16):
    # u = 0 is a point of both domains: same volume, other weights.
    weights = np.linspace(1.0, 2.0, 16)
    other = QuadratureDomain(weights=weights * (0.25 / weights.sum()), vol=0.25)
    u_a = ConformalFactor(d16, np.zeros(16))
    u_b = ConformalFactor(other, np.zeros(16))
    seg = geodesic_cauchy(u_a, random_admissible_tangent(u_a, rng))
    w = random_tangent(u_b, rng)
    t = 0.5 * seg.t_max
    with pytest.raises(DomainMismatchError, match="not based at"):
        parallel_transport(seg, w, t)
    with pytest.raises(DomainMismatchError, match="not based at"):
        _transport_ode(seg, w, t)


def test_transport_outside_interval(rng, d16):
    u0 = random_point(d16, rng, amplitude=0.4)
    v0 = random_admissible_tangent(u0, rng)
    seg = geodesic_cauchy(u0, v0)
    with pytest.raises(ValueError, match="interval"):
        parallel_transport(seg, v0, seg.t_max + 1.0)


def test_curvature_orthonormal_pair(rng, d16):
    u = random_point(d16, rng, amplitude=0.4)
    a, b = orthonormal_pair(u, rng)
    expected = -1.0 / (4.0 * d16.vol)
    assert curvature_tensor(u, a, b, a, b) == pytest.approx(expected, rel=1e-12)


def test_curvature_vanishes_on_repeats(rng, d16):
    u = random_point(d16, rng)
    a = random_tangent(u, rng)
    b = random_tangent(u, rng)
    assert curvature_tensor(u, a, a, b, b) == 0.0
    assert curvature_tensor(u, a, a, a, a) == 0.0


def test_curvature_antisymmetry(rng, d16):
    u = random_point(d16, rng)
    a, b, c, d = (random_tangent(u, rng) for _ in range(4))
    r1 = curvature_tensor(u, a, b, c, d)
    r2 = curvature_tensor(u, b, a, c, d)
    assert r1 == pytest.approx(-r2, rel=1e-12, abs=1e-16)


def test_sectional_curvature_exact_on_normalized(rng, d3, d16):
    for dom in (d3, d16):
        u = random_point(dom, rng, amplitude=0.5)
        a = random_tangent(u, rng)
        b = random_tangent(u, rng)
        assert sectional_curvature(u, a, b) == 1.0


def test_sectional_curvature_scales_with_volume(rng):
    dom = QuadratureDomain(weights=np.full(8, 0.125), vol=1.0)
    u = random_point(dom, rng, amplitude=0.5)
    a = random_tangent(u, rng)
    b = random_tangent(u, rng)
    assert sectional_curvature(u, a, b) == pytest.approx(0.25, rel=1e-12)


def test_sectional_curvature_scale_invariance(rng, d16):
    u = random_point(d16, rng)
    a = random_tangent(u, rng)
    b = random_tangent(u, rng)
    k1 = sectional_curvature(u, a, b)
    k2 = sectional_curvature(
        u, TangentVector(u, 2.0 * a.values), TangentVector(u, 3.0 * b.values)
    )
    assert k2 == pytest.approx(k1, rel=1e-12)


def test_sectional_curvature_degenerate_plane(rng, d16):
    u = random_point(d16, rng)
    a = random_tangent(u, rng)
    with pytest.raises(ValueError, match="degenerate"):
        sectional_curvature(u, a, TangentVector(u, 2.0 * a.values))


def test_torsion_free(rng, d16):
    u0 = random_point(d16, rng, amplitude=0.4)
    a = random_tangent(u0, rng, amplitude=0.3)
    b = random_tangent(u0, rng, amplitude=0.3)
    dom = d16
    h = 1e-3

    def alpha(s, t):
        return exp_map(u0, TangentVector(u0, s * a.values + t * b.values))

    def d_s(s, t):
        return (alpha(s + h, t).values - alpha(s - h, t).values) / (2.0 * h)

    def d_t(s, t):
        return (alpha(s, t + h).values - alpha(s, t - h).values) / (2.0 * h)

    def cov(deriv, sec, vel, base):
        pairing = integrate(dom, sec * vel * base.density())
        return deriv + 0.5 * sec * vel + pairing / (2.0 * dom.vol)

    base = alpha(0.0, 0.0)
    dt_ds = cov(
        (d_s(0.0, h) - d_s(0.0, -h)) / (2.0 * h), d_s(0.0, 0.0), d_t(0.0, 0.0), base
    )
    ds_dt = cov(
        (d_t(h, 0.0) - d_t(-h, 0.0)) / (2.0 * h), d_t(0.0, 0.0), d_s(0.0, 0.0), base
    )
    assert float(np.max(np.abs(dt_ds - ds_dt))) <= 1e-4


def test_metric_compatibility(rng, d16):
    u0 = random_point(d16, rng, amplitude=0.4)
    a = random_admissible_tangent(u0, rng, fill=0.3)
    v_raw = rng.standard_normal(16)
    w_raw = rng.standard_normal(16)
    dt = 1e-3
    times = [-dt, 0.0, dt]
    points = [exp_map(u0, TangentVector(u0, t * a.values)) for t in times]
    curve = SampledCurve(times=times, points=points)
    v_secs = np.array([project_to_tangent(p, v_raw).values for p in points])
    w_secs = np.array([project_to_tangent(p, w_raw).values for p in points])

    def pairing(i):
        p = points[i]
        return integrate(d16, v_secs[i] * w_secs[i] * p.density())

    lhs = (pairing(2) - pairing(0)) / (2.0 * dt)
    dv = cov_deriv(curve, v_secs, 1)
    dw = cov_deriv(curve, w_secs, 1)
    p0 = points[1]
    rhs = integrate(d16, dv * w_secs[1] * p0.density()) + integrate(
        d16, v_secs[1] * dw * p0.density()
    )
    assert lhs == pytest.approx(rhs, abs=1e-4)


def test_fd_curvature_oracle_matches_closed_tensor(rng, d3):
    u = random_point(d3, rng, amplitude=0.5)
    a, b = orthonormal_pair(u, rng)
    fd = finite_difference_curvature(u, a, b, a, b)
    closed = curvature_tensor(u, a, b, a, b)
    assert closed == pytest.approx(-1.0, rel=1e-12)
    assert abs(fd - closed) < 1e-3


def test_fd_curvature_oracle_random_slots(rng, d3):
    u = random_point(d3, rng, amplitude=0.5)
    args = [random_tangent(u, rng, amplitude=0.8) for _ in range(4)]
    fd = finite_difference_curvature(u, *args)
    closed = curvature_tensor(u, *args)
    assert abs(fd - closed) < 1e-3


def test_locally_symmetric(rng, d16):
    u0 = random_point(d16, rng, amplitude=0.4)
    v0 = random_admissible_tangent(u0, rng, fill=0.5)
    seg = geodesic_cauchy(u0, v0)
    args = [random_tangent(u0, rng) for _ in range(4)]
    delta = 1e-3

    def r_transported(t):
        if t == 0.0:
            return curvature_tensor(u0, *args)
        pt = evaluate(seg, t)
        moved = [parallel_transport(seg, x, t) for x in args]
        return curvature_tensor(pt, *moved)

    dr = (r_transported(delta) - r_transported(-delta)) / (2.0 * delta)
    assert abs(dr) <= 1e-6
