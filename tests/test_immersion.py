import math

import numpy as np
import pytest

from calabi import (
    ConformalFactor,
    TangentVector,
    distance,
    evaluate,
    geodesic_cauchy,
    immerse,
    inner,
    integrate,
    parallel_transport,
    project_to_space,
    pushforward,
    random_point,
    random_tangent,
)
from calabi.verify import immersion_isometry_error, random_admissible_tangent

CHORD_PI_12 = 0.26105238444010315  # 2 sin(pi/24), frozen


def chord_and_arc(u0, u1):
    """L2 chord between the sphere images, summed from the images themselves,
    and the intrinsic arc distance; chord = 2 rho sin(arc / (2 rho))."""
    diff = immerse(u0) - immerse(u1)
    return float(np.sqrt(integrate(u0.domain, diff * diff))), distance(u0, u1).d


def test_flat_point_maps_to_constant_two(u0_d2, d2):
    f = immerse(u0_d2)
    assert np.array_equal(f, [2.0, 2.0])
    assert integrate(d2, f**2) == 1.0


def test_sphere_oracles_accept_every_valid_point(rng, d64):
    # mass off by 5e-11 relative: inside EPS_CONSTRAINT, so a valid point,
    # and its image has integrate(f^2) off from rho^2 by the same amount
    u = random_point(d64, rng)
    u_off = ConformalFactor(d64, u.values + 5e-11)
    f = immerse(u_off)
    assert np.array_equal(f, 2.0 * np.exp(0.5 * u_off.values))
    assert integrate(d64, f**2) == pytest.approx(d64.radius**2, rel=1e-10)
    chord, arc = chord_and_arc(u_off, random_point(d64, rng))
    assert chord == pytest.approx(2.0 * d64.radius * math.sin(arc / (2.0 * d64.radius)), rel=1e-9)
    seg = geodesic_cauchy(u_off, random_admissible_tangent(u_off, rng, fill=0.6))
    w = random_tangent(u_off, rng)
    t = 0.5 * seg.t_max
    out = parallel_transport(seg, w, t)
    assert inner(out.basepoint, out, out) == pytest.approx(inner(u_off, w, w), rel=1e-12)


def test_pullback_metric_is_exact(rng, d64):
    u = random_point(d64, rng)
    for _ in range(10):
        v = random_tangent(u, rng)
        w = random_tangent(u, rng)
        assert immersion_isometry_error(u, v, w) <= 1e-13
    # one exactly orthogonal pair, where <v, w>_u itself is at rounding level
    w_perp = TangentVector(u, w.values - inner(u, v, w) / inner(u, v, v) * v.values)
    assert immersion_isometry_error(u, v, w_perp) <= 1e-13


def test_chordal_of_equal_points(u0_d2):
    assert chord_and_arc(u0_d2, u0_d2) == (0.0, 0.0)


def test_chordal_worked_example(d2):
    u0 = project_to_space(d2, np.zeros(2))
    u1 = project_to_space(d2, np.array([np.log(1.5), np.log(0.5)]))
    chord, arc = chord_and_arc(u0, u1)
    assert arc == pytest.approx(math.pi / 12.0, abs=1e-14)
    assert chord == pytest.approx(CHORD_PI_12, abs=1e-14)


def test_chord_arc_relation(rng, d16):
    for _ in range(10):
        u0 = random_point(d16, rng, amplitude=0.8)
        u1 = random_point(d16, rng, amplitude=0.8)
        chord, arc = chord_and_arc(u0, u1)
        rho = d16.radius
        assert chord == pytest.approx(2.0 * rho * math.sin(arc / (2.0 * rho)), abs=1e-12)
        assert chord <= arc + 1e-15


def test_geodesic_image_is_a_great_circle(rng, d16):
    u0 = random_point(d16, rng, amplitude=0.4)
    v0 = random_admissible_tangent(u0, rng, fill=0.8)
    seg = geodesic_cauchy(u0, v0)
    f0 = immerse(u0)
    g0 = pushforward(u0, v0)
    nf = integrate(d16, f0 * f0)
    ng = integrate(d16, g0 * g0)
    for frac in (-0.9, -0.3, 0.45, 0.95):
        t = frac * (seg.t_max if frac > 0 else -seg.t_min)
        f_t = immerse(evaluate(seg, t))
        residual = (
            f_t
            - integrate(d16, f_t * f0) / nf * f0
            - integrate(d16, f_t * g0) / ng * g0
        )
        assert math.sqrt(integrate(d16, residual**2)) <= 1e-10


def test_sphere_transport_at_zero(rng, d16):
    u0 = random_point(d16, rng, amplitude=0.4)
    v0 = random_admissible_tangent(u0, rng)
    seg = geodesic_cauchy(u0, v0)
    w = random_tangent(u0, rng)
    assert np.array_equal(parallel_transport(seg, w, 0.0).values, w.values)


def test_sphere_transport_of_velocity(rng, d16):
    u0 = random_point(d16, rng, amplitude=0.4)
    v0 = random_admissible_tangent(u0, rng, fill=0.6)
    seg = geodesic_cauchy(u0, v0)
    for frac in (0.35, 0.8, -0.5):
        t = frac * (seg.t_max if frac > 0 else -seg.t_min)
        out = parallel_transport(seg, v0, t)
        assert np.allclose(out.values, seg.velocity_values(t), atol=1e-12)


def test_sphere_transport_preserves_metric_pairings(rng, d16):
    u0 = random_point(d16, rng, amplitude=0.4)
    v0 = random_admissible_tangent(u0, rng, fill=0.6)
    seg = geodesic_cauchy(u0, v0)
    w1 = random_tangent(u0, rng)
    w2 = random_tangent(u0, rng)
    t = 0.7 * seg.t_max
    out1 = parallel_transport(seg, w1, t)
    out2 = parallel_transport(seg, w2, t)
    u_t = evaluate(seg, t)
    assert inner(u_t, out1, out2) == pytest.approx(inner(u0, w1, w2), abs=1e-13)


def test_distance_agrees_with_ambient_angle(rng, d16):
    # the arc distance is rho times the ambient angle between the images
    u0 = random_point(d16, rng, amplitude=0.6)
    u1 = random_point(d16, rng, amplitude=0.6)
    f0, f1 = immerse(u0), immerse(u1)
    rho = d16.radius
    cosang = integrate(d16, f0 * f1) / rho**2
    assert distance(u0, u1).d == pytest.approx(rho * math.acos(cosang), abs=1e-12)
