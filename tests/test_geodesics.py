import math

import numpy as np
import pytest

from calabi import (
    DegenerateEndpointsError,
    ExpDomainError,
    TangentVector,
    arccot,
    boundary_sequence,
    diameter_sequence,
    distance,
    evaluate,
    exp_map,
    geodesic_cauchy,
    geodesic_dirichlet,
    inner,
    integrate,
    log_map,
    norm,
    path_length,
    project_to_space,
    project_to_tangent,
    random_point,
    zero_tangent,
)
from calabi.verify import random_admissible_tangent
from chord_reference import reference_distance

# time-1 point of the D2 geodesic from (0,0) with v0=(1,-1), frozen from the
# profile oracle 2*log(cos(1/2) +- sin(1/2)); the mass constraint is exact
# because (c+s)^2 + (c-s)^2 = 2.
EXP_NODE_0 = 0.6105647004975029
EXP_NODE_1 = -1.841817641269531

PI_12 = 0.2617993877991494  # t0 of the D2 pair (0,0) vs (log 1.5, log 0.5)


def dirichlet_pair(d2):
    u0 = project_to_space(d2, np.zeros(2))
    u1 = project_to_space(d2, np.array([np.log(1.5), np.log(0.5)]))
    return u0, u1


def test_zero_velocity_gives_constant_geodesic(u0_d2):
    seg = geodesic_cauchy(u0_d2, zero_tangent(u0_d2))
    assert seg.t_min == -math.inf and seg.t_max == math.inf
    for t in (-100.0, 0.0, 3.7):
        assert np.array_equal(evaluate(seg, t).values, u0_d2.values)


def test_worked_example_interval(u0_d2, v0_d2):
    seg = geodesic_cauchy(u0_d2, v0_d2)
    assert seg.speed == 0.5
    # interval formula with min v0 = -1, max v0 = 1, speed 1/2
    assert seg.t_max == pytest.approx(2.0 * arccot(1.0), abs=1e-15)
    assert seg.t_min == pytest.approx(-math.pi / 2.0, abs=1e-15)


def test_worked_example_time_one_point(u0_d2, v0_d2, d2):
    seg = geodesic_cauchy(u0_d2, v0_d2)
    p = evaluate(seg, 1.0)
    assert p.values[0] == pytest.approx(EXP_NODE_0, abs=1e-15)
    assert p.values[1] == pytest.approx(EXP_NODE_1, abs=1e-15)
    assert integrate(d2, p.density()) == pytest.approx(0.25, rel=1e-15)


def test_speed_is_constant_along_geodesic(rng, d16):
    u0 = random_point(d16, rng, amplitude=0.4)
    v0 = random_admissible_tangent(u0, rng)
    seg = geodesic_cauchy(u0, v0)
    for frac in (-0.7, -0.2, 0.3, 0.8):
        t = frac * (seg.t_max if frac > 0 else -seg.t_min)
        u_t = evaluate(seg, t)
        vel = seg.velocity_at(t)
        assert inner(u_t, vel, vel) == pytest.approx(seg.speed**2, rel=1e-12)


def test_mass_preserved_along_geodesic(rng, d64):
    for _ in range(10):
        u0 = random_point(d64, rng, amplitude=0.5)
        v0 = random_admissible_tangent(u0, rng)
        seg = geodesic_cauchy(u0, v0)
        for frac in (-0.9, -0.4, 0.25, 0.95):
            t = frac * (seg.t_max if frac > 0 else -seg.t_min)
            mass = integrate(d64, evaluate(seg, t).density())
            assert mass == pytest.approx(d64.vol, rel=1e-12)


def test_minimum_drops_to_boundary(u0_d2, v0_d2):
    seg = geodesic_cauchy(u0_d2, v0_d2)
    mins = [
        float(np.min(evaluate(seg, frac * seg.t_max).values))
        for frac in (0.9, 0.99, 0.999, 0.9999)
    ]
    assert all(b < a for a, b in zip(mins, mins[1:]))
    assert mins[-1] < -15.0


def test_evaluate_outside_interval_names_bound(u0_d2, v0_d2):
    seg = geodesic_cauchy(u0_d2, v0_d2)
    with pytest.raises(ValueError, match=r"open existence interval"):
        evaluate(seg, seg.t_max)
    with pytest.raises(ValueError, match=str(seg.t_min)):
        evaluate(seg, seg.t_min - 0.1)


def test_exp_of_zero_is_identity(u0_d2):
    assert exp_map(u0_d2, zero_tangent(u0_d2)) is u0_d2


def test_exp_worked_example(u0_d2, v0_d2):
    # |v0| = 1/2 is below the direction bound arccot(1) = pi/4
    assert norm(u0_d2, v0_d2) < arccot(1.0)
    w = exp_map(u0_d2, v0_d2)
    assert np.allclose(w.values, [EXP_NODE_0, EXP_NODE_1], atol=1e-15)


def test_exp_outside_domain_carries_bound(u0_d2, v0_d2):
    big = TangentVector(u0_d2, 2.0 * v0_d2.values)  # |v| = 1 > arccot(1)
    with pytest.raises(ExpDomainError) as err:
        exp_map(u0_d2, big)
    assert err.value.bound == pytest.approx(arccot(1.0), abs=1e-15)


def test_homogeneity(rng, d16):
    u0 = random_point(d16, rng, amplitude=0.4)
    v0 = random_admissible_tangent(u0, rng, fill=0.5)
    seg = geodesic_cauchy(u0, v0)
    for a in (0.3, 0.7, 1.5, -0.8):
        scaled = geodesic_cauchy(u0, TangentVector(u0, a * v0.values))
        for t in (0.2, 0.5):
            if seg.t_min < a * t < seg.t_max and scaled.t_min < t < scaled.t_max:
                lhs = evaluate(scaled, t).values
                rhs = evaluate(seg, a * t).values
                assert np.allclose(lhs, rhs, atol=1e-12)


def test_log_of_same_point_is_zero(u0_d2):
    assert np.array_equal(log_map(u0_d2, u0_d2).values, np.zeros(2))


def test_log_worked_example(u0_d2, d2):
    w = project_to_space(d2, np.array([EXP_NODE_0, EXP_NODE_1]))
    v = log_map(u0_d2, w)
    assert np.allclose(v.values, [1.0, -1.0], atol=1e-9)
    # cosine of the pair is cos(1/2) and the factor is 2*(1/2)/sin(1/2)
    assert distance(u0_d2, w).cosine == pytest.approx(np.cos(0.5), abs=1e-15)


def test_exp_log_round_trip(rng, d3):
    u0 = random_point(d3, rng, amplitude=0.5)
    worst = 0.0
    for _ in range(200):
        v = random_admissible_tangent(u0, rng)
        back = log_map(u0, exp_map(u0, v))
        worst = max(worst, float(np.max(np.abs(back.values - v.values))))
    assert worst < 1e-9


def test_log_norm_equals_distance(rng, d16):
    for _ in range(10):
        u0 = random_point(d16, rng, amplitude=0.6)
        w = random_point(d16, rng, amplitude=0.6)
        assert norm(u0, log_map(u0, w)) == pytest.approx(distance(u0, w).d, abs=1e-13)


def test_differential_of_exp_at_origin(rng, d16):
    u0 = random_point(d16, rng, amplitude=0.4)
    v = random_admissible_tangent(u0, rng, fill=0.5)
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        w = exp_map(u0, TangentVector(u0, h * v.values))
        approx = (w.values - u0.values) / h
        errs.append(float(np.max(np.abs(approx - v.values))))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] / errs[1] == pytest.approx(0.5, abs=0.1)  # first-order convergence


def test_dirichlet_worked_t0(d2):
    u0, u1 = dirichlet_pair(d2)
    seg, t0 = geodesic_dirichlet(u0, u1)
    assert t0 == pytest.approx(PI_12, abs=1e-14)
    assert seg.speed == pytest.approx(d2.radius, rel=1e-14)


def test_dirichlet_hits_both_endpoints(d2):
    u0, u1 = dirichlet_pair(d2)
    seg, t0 = geodesic_dirichlet(u0, u1)
    assert np.array_equal(evaluate(seg, 0.0).values, u0.values)
    assert np.allclose(evaluate(seg, t0).values, u1.values, atol=1e-12)


def test_dirichlet_midpoint_additivity(d2):
    u0, u1 = dirichlet_pair(d2)
    seg, t0 = geodesic_dirichlet(u0, u1)
    mid = evaluate(seg, t0 / 2.0)
    _, t_half = geodesic_dirichlet(u0, mid)
    assert t_half == pytest.approx(t0 / 2.0, abs=1e-13)


def test_dirichlet_swapped_endpoints_reverse_parametrization(rng, d16):
    u0 = random_point(d16, rng, amplitude=0.5)
    u1 = random_point(d16, rng, amplitude=0.5)
    seg01, t0 = geodesic_dirichlet(u0, u1)
    seg10, t0_back = geodesic_dirichlet(u1, u0)
    assert t0_back == pytest.approx(t0, rel=1e-13)
    for frac in (0.25, 0.5, 0.9):
        t = frac * t0
        assert np.allclose(
            evaluate(seg01, t).values, evaluate(seg10, t0 - t).values, atol=1e-11
        )


def test_dirichlet_degenerate_endpoints(u0_d2):
    with pytest.raises(DegenerateEndpointsError):
        geodesic_dirichlet(u0_d2, u0_d2)


def test_distance_axioms(rng, d16):
    pts = [random_point(d16, rng, amplitude=0.6) for _ in range(8)]
    for p in pts:
        assert distance(p, p).d == 0.0
    for _ in range(100):
        i, j, k = rng.integers(0, 8, size=3)
        dij = distance(pts[i], pts[j]).d
        assert dij == distance(pts[j], pts[i]).d  # the chord is symmetric bitwise
        assert dij < 0.5 * math.pi * d16.radius
        slack = dij + distance(pts[j], pts[k]).d - distance(pts[i], pts[k]).d
        assert slack >= -1e-12


def test_distance_equals_speed_times_t0(rng, d16):
    u0 = random_point(d16, rng, amplitude=0.5)
    u1 = random_point(d16, rng, amplitude=0.5)
    seg, t0 = geodesic_dirichlet(u0, u1)
    assert distance(u0, u1).d == pytest.approx(seg.speed * t0, abs=1e-12)


def test_path_length_of_geodesic_matches_distance(d16, rng):
    u0 = random_point(d16, rng, amplitude=0.5)
    u1 = random_point(d16, rng, amplitude=0.5)
    seg, t0 = geodesic_dirichlet(u0, u1)
    times = np.linspace(0.0, t0, 200)
    pts = [evaluate(seg, t) for t in times]
    assert path_length(pts, times) == pytest.approx(distance(u0, u1).d, rel=1e-4)


def test_path_length_rejects_nan_times(d16, rng):
    # NaN compares False, so the check must accept only increasing steps
    pts = [random_point(d16, rng) for _ in range(3)]
    with pytest.raises(ValueError, match="strictly increasing"):
        path_length(pts, [0.0, np.nan, 1.0])


def test_minimizing_property_small(rng, d16):
    u0 = random_point(d16, rng, amplitude=0.5)
    u1 = random_point(d16, rng, amplitude=0.5)
    seg, t0 = geodesic_dirichlet(u0, u1)
    d = distance(u0, u1).d
    times = np.linspace(0.0, t0, 300)
    for _ in range(10):
        eta = rng.standard_normal(16)
        amp = 0.05 * rng.uniform(0.2, 1.0)
        k = rng.integers(1, 4)
        pts = []
        for t in times:
            base = evaluate(seg, t)
            noise = project_to_tangent(base, eta).values
            bump = amp * math.sin(math.pi * k * t / t0)
            pts.append(project_to_space(d16, base.values + bump * noise))
        assert path_length(pts, times) >= d - 1e-6


def test_diameter_sequence_monotone_and_bounded(d64):
    base = project_to_space(d64, np.zeros(64))
    seq = diameter_sequence(base, 6)
    dists = [d for _, d in seq]
    assert all(0.0 < d < math.pi / 2.0 for d in dists)
    assert all(b >= a - 1e-12 for a, b in zip(dists, dists[1:]))


def test_diameter_sequence_needs_nodes(u0_d2):
    with pytest.raises(ValueError, match="16 nodes"):
        diameter_sequence(u0_d2, 3)


def test_boundary_sequence_decreases(d64):
    base = project_to_space(d64, np.zeros(64))
    seq = boundary_sequence(base, 6)
    times = [t for _, t in seq]
    assert all(0.0 < t < math.pi / 2.0 for t in times)
    assert all(b <= a + 1e-12 for a, b in zip(times, times[1:]))


def test_boundary_geodesic_is_nearly_degenerate_at_exit(d64):
    base = project_to_space(d64, np.zeros(64))
    dens_w = base.density() * d64.weights
    mu_s = float(dens_w[0])
    c = math.sqrt((d64.vol - mu_s) / (mu_s * d64.vol))
    values = np.full(64, c * mu_s / (d64.vol - mu_s))
    values[0] = -c
    v = TangentVector(base, values)
    seg = geodesic_cauchy(base, v)
    just_inside = evaluate(seg, seg.t_max * (1.0 - 1e-10))
    assert float(np.min(just_inside.values)) < -40.0  # log of a vanishing density


def test_boundary_sequence_needs_nodes(u0_d2):
    with pytest.raises(ValueError, match="16 nodes"):
        boundary_sequence(u0_d2, 3)


# Near pairs, against the scalar fsum chord of ``chord_reference``.


def near_setup(d16):
    """A random point a on 16 nodes and eps -> project(a + eps n) for a
    random direction n."""
    rng = np.random.default_rng(0)
    a = random_point(d16, rng)
    n = rng.standard_normal(16)
    return a, lambda eps: project_to_space(d16, a.values + eps * n)


@pytest.mark.parametrize("eps", [10.0**-k for k in range(3, 14)])
def test_distance_matches_the_fsum_chord_at_every_separation(d16, eps):
    a, near = near_setup(d16)
    b = near(eps)
    d = distance(a, b).d
    assert d > 0.0
    assert abs(d - reference_distance(a, b)) <= 1e-14 * reference_distance(a, b)
    assert distance(b, a).d == d


def test_near_pair_distance_and_round_trip(d16):
    a, near = near_setup(d16)
    b = near(2e-7)
    d = distance(a, b).d
    ref = reference_distance(a, b)
    assert d > 0.0 and abs(d - ref) <= 1e-14 * ref
    back = exp_map(a, log_map(a, b))
    assert float(np.max(np.abs(back.values - b.values))) <= 1e-9
    assert norm(a, log_map(a, b)) == pytest.approx(d, rel=1e-13)


def test_triangle_inequality_for_near_points(d16):
    a, near = near_setup(d16)
    b, c = near(2e-7), near(4e-7)
    for p, q in ((a, b), (b, c), (a, c)):
        ref = reference_distance(p, q)
        assert abs(distance(p, q).d - ref) <= 1e-14 * ref
    assert distance(a, c).d <= distance(a, b).d + distance(b, c).d + 1e-12
    assert distance(a, b).d <= distance(a, c).d + distance(c, b).d + 1e-12


def test_log_map_is_zero_only_at_the_point(d16):
    a, near = near_setup(d16)
    assert np.array_equal(log_map(a, a).values, np.zeros(16))
    assert distance(a, a).d == 0.0
    b = near(1e-10)
    v = log_map(a, b)
    assert norm(a, v) == pytest.approx(reference_distance(a, b), rel=1e-13)


def test_dirichlet_splits_at_exactly_equal_endpoints(d16):
    a, near = near_setup(d16)
    with pytest.raises(DegenerateEndpointsError):
        geodesic_dirichlet(a, a)
    b = near(1e-10)
    seg, t0 = geodesic_dirichlet(a, b)
    assert t0 == distance(a, b).t0 > 0.0
    assert seg.speed == pytest.approx(d16.radius, rel=1e-12)
    assert float(np.max(np.abs(evaluate(seg, t0).values - b.values))) <= 1e-12


@pytest.mark.parametrize("eps", [1e-8, 1e-10, 1e-12, 1e-13])
def test_dirichlet_speed_is_rho_for_near_endpoints(d16, eps):
    # the endpoints' mass rounding, about 1e-17, would reach the speed
    # through 2/sin t0 if the velocity were not scaled to norm rho
    for seed in range(50):
        rng = np.random.default_rng(seed)
        a = random_point(d16, rng)
        b = project_to_space(d16, a.values + eps * rng.standard_normal(16))
        seg, t0 = geodesic_dirichlet(a, b)
        assert abs(seg.speed / d16.radius - 1.0) <= 4.4e-16
        assert float(np.max(np.abs(evaluate(seg, t0).values - b.values))) <= 1e-12


def test_distance_agrees_with_the_gram_cosine_at_large_separations(rng, d16):
    # at O(1) separations arccos of the Gram cosine integrate(h0 h1) / vol
    # is accurate to rounding, and the chord form must agree with it
    for _ in range(20):
        u0 = random_point(d16, rng, amplitude=0.8)
        u1 = random_point(d16, rng, amplitude=0.8)
        cosine = integrate(d16, u0.half_density() * u1.half_density()) / d16.vol
        assert distance(u0, u1).d == pytest.approx(
            d16.radius * math.acos(cosine), abs=1e-14
        )


@pytest.mark.parametrize("low", [-1600.0, -3000.0])
def test_distance_is_finite_where_a_density_underflows(rng, d16, low):
    # e^(u0/2) is 0.0 at node 3; at -3000 e^((u0+u1)/4) is 0.0 there too and
    # e^(|u1-u0|/4) overflows, so the chord must not be built from those
    raw = 0.3 * rng.standard_normal(16)
    raw[3] = low
    u0 = project_to_space(d16, raw)
    u1 = random_point(d16, rng, amplitude=0.3)
    # the log direction from u0, which distance does not use, is
    # expm1((u1 - u0)/2) = inf at node 3
    with np.errstate(over="ignore"):
        d = distance(u0, u1).d
    assert d == distance(u1, u0).d
    cosine = integrate(d16, u0.half_density() * u1.half_density()) / d16.vol
    assert d == pytest.approx(d16.radius * math.acos(cosine), abs=1e-14)
    assert np.all(np.isfinite(log_map(u1, u0).values))
