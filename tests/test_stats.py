import math

import numpy as np
import pytest

from calabi import (
    ConvergenceError,
    DensitySet,
    DomainMismatchError,
    TangentVector,
    distance,
    distance_matrix,
    evaluate,
    geodesic_dirichlet,
    integrate,
    karcher_mean,
    log_map,
    make_normalized_domain,
    norm,
    project_to_space,
    random_point,
)
from calabi.quadrature import QuadratureDomain

PI_12 = 0.2617993877991494


def d2_pair(d2):
    u0 = project_to_space(d2, np.zeros(2))
    u1 = project_to_space(d2, np.array([np.log(1.5), np.log(0.5)]))
    return u0, u1


def test_density_set_validation(rng, d16):
    pts = [random_point(d16, rng) for _ in range(3)]
    with pytest.raises(ValueError, match="at least one"):
        DensitySet([])
    with pytest.raises(ValueError, match="per density"):
        DensitySet(pts, weights=[0.5, 0.5])
    with pytest.raises(ValueError, match="nonnegative"):
        DensitySet(pts, weights=[1.5, -0.25, -0.25])
    with pytest.raises(ValueError, match="sum to one"):
        DensitySet(pts, weights=[0.5, 0.4, 0.2])
    other = random_point(make_normalized_domain(16), rng)
    with pytest.raises(DomainMismatchError):
        DensitySet([pts[0], other])


def test_nan_weight_is_rejected(rng, d16):
    pts = [random_point(d16, rng) for _ in range(2)]
    with pytest.raises(ValueError, match="sum to one"):
        DensitySet(pts, weights=[math.nan, 0.5])


def test_mean_of_duplicates_is_the_point(rng, d16):
    u = random_point(d16, rng, amplitude=0.5)
    mean = karcher_mean(DensitySet([u, u]))
    assert np.allclose(mean.values, u.values, atol=1e-12)


def test_mean_of_two_is_dirichlet_midpoint(rng, d16):
    u0 = random_point(d16, rng, amplitude=0.5)
    u1 = random_point(d16, rng, amplitude=0.5)
    mean = karcher_mean(DensitySet([u0, u1]), tol=1e-12)
    seg, t0 = geodesic_dirichlet(u0, u1)
    midpoint = evaluate(seg, t0 / 2.0)
    assert np.allclose(mean.values, midpoint.values, atol=1e-10)


def test_mean_residual_is_small(rng, d16):
    pts = [random_point(d16, rng, amplitude=0.5) for _ in range(5)]
    dset = DensitySet(pts)
    mean = karcher_mean(dset, tol=1e-11)
    resid = np.zeros(16)
    for w, p in zip(dset.weights, pts):
        resid = resid + w * log_map(mean, p).values
    from calabi import project_to_tangent

    resid_vec = project_to_tangent(mean, resid)
    assert norm(mean, resid_vec) <= 1e-10


def test_mean_converges_where_every_density_underflows_at_a_node(rng, d64):
    # At u = -1600, e^u and e^(u/2) are both exactly 0.0 in double precision.
    pts = []
    for _ in range(3):
        raw = 0.5 * rng.standard_normal(64)
        raw[0] = -1600.0
        pts.append(project_to_space(d64, raw))
    mean = karcher_mean(DensitySet(pts), tol=1e-12)
    assert np.all(np.isfinite(mean.values)) and mean.values[0] < -1500.0
    resid = sum(log_map(mean, p).values for p in pts) / 3.0
    assert np.sqrt(integrate(d64, resid**2 * np.exp(mean.values))) <= 1e-11
    pair_mean = karcher_mean(DensitySet(pts[:2]), tol=1e-12)
    seg, t0 = geodesic_dirichlet(pts[0], pts[1])
    assert np.allclose(pair_mean.values, evaluate(seg, t0 / 2.0).values, atol=1e-10)


def test_near_pair_apart_by_3000_at_one_node(rng, d64):
    # q is p but for u = -3000 at node 0, where e^((u_p+u_q)/4) is 0.0 and
    # e^(|u_p-u_q|/4) overflows; the Gram cosine is above the cut
    p = random_point(d64, rng, amplitude=0.3)
    raw = p.values.copy()
    raw[0] = -3000.0
    q = project_to_space(d64, raw)
    # the log direction from q, which distance does not use, is inf at node 0
    with np.errstate(over="ignore"):
        m = distance_matrix(DensitySet([p, q]))
        d = distance(p, q).d
        assert m[0, 1] == m[1, 0] == d == distance(q, p).d
    cosine = integrate(d64, p.half_density() * q.half_density()) / d64.vol
    assert cosine > 0.99
    assert d == pytest.approx(d64.radius * math.acos(cosine), abs=1e-14)
    v = log_map(p, q)
    assert np.all(np.isfinite(v.values))
    assert norm(p, v) == pytest.approx(d, rel=1e-14)


def test_mean_is_permutation_invariant_bitwise(rng, d16):
    pts = [random_point(d16, rng, amplitude=0.5) for _ in range(4)]
    mean_a = karcher_mean(DensitySet(list(pts)))
    mean_b = karcher_mean(DensitySet([pts[2], pts[0], pts[3], pts[1]]))
    assert np.array_equal(mean_a.values, mean_b.values)


def test_mean_is_permutation_invariant_bitwise_on_many_points(rng, d16):
    pts = [random_point(d16, rng, amplitude=0.5) for _ in range(32)]
    weights = rng.uniform(0.5, 1.5, 32)
    weights /= weights.sum()
    mean = karcher_mean(DensitySet(pts, weights=weights))
    for order in (np.arange(32)[::-1], rng.permutation(32)):
        permuted = DensitySet([pts[i] for i in order], weights=weights[order])
        assert np.array_equal(karcher_mean(permuted).values, mean.values)


def test_mean_respects_weights(rng, d16):
    u0 = random_point(d16, rng, amplitude=0.5)
    u1 = random_point(d16, rng, amplitude=0.5)
    mean = karcher_mean(DensitySet([u0, u1], weights=[1.0, 0.0]), tol=1e-12)
    assert distance(mean, u0).d <= 1e-10


def test_mean_rejects_spread_inputs(d64):
    # two densities concentrated on disjoint node sets sit nearly at the
    # supremum distance, outside the uniqueness regime
    eps = 1e-12
    base = np.full(64, eps)
    a = base.copy()
    a[0] = 1.0
    b = base.copy()
    b[-1] = 1.0
    u_a = project_to_space(d64, np.log(a))
    u_b = project_to_space(d64, np.log(b))
    assert distance(u_a, u_b).d > 0.5 * math.pi - 1e-3
    with pytest.raises(DomainMismatchError, match="densities 0 and 1 are .* apart"):
        karcher_mean(DensitySet([u_a, u_b]))


def test_mean_converges_with_a_point_at_the_boundary(d16):
    # The start averages u = -3000 into about -750 at node 0, where the log
    # direction is about 1e163: its square overflows while e^u underflows.
    rng = np.random.default_rng(0)
    pts = [random_point(d16, rng) for _ in range(3)]
    raw = rng.standard_normal(16)
    raw[0] = -3000.0
    pts.append(project_to_space(d16, raw))
    mean = karcher_mean(DensitySet(pts))
    gradient = sum(log_map(mean, p).values for p in pts) / len(pts)
    assert norm(mean, TangentVector(mean, gradient)) <= 1e-10


def test_mean_convergence_error_carries_residual(rng, d16):
    pts = [random_point(d16, rng, amplitude=0.5) for _ in range(3)]
    with pytest.raises(ConvergenceError) as err:
        karcher_mean(DensitySet(pts), tol=1e-16, max_iter=0)
    assert err.value.residual > 0.0


def test_mean_rejects_a_negative_iteration_budget(rng, d16):
    pts = [random_point(d16, rng, amplitude=0.5) for _ in range(3)]
    with pytest.raises(ValueError, match="max_iter must be non-negative, got -3"):
        karcher_mean(DensitySet(pts), max_iter=-3)


def test_distance_matrix_singleton(rng, d16):
    u = random_point(d16, rng)
    assert np.array_equal(distance_matrix(DensitySet([u])), [[0.0]])


def test_distance_matrix_worked_pair(d2):
    u0, u1 = d2_pair(d2)
    m = distance_matrix(DensitySet([u0, u1]))
    assert m[0, 0] == m[1, 1] == 0.0
    assert m[0, 1] == m[1, 0] == pytest.approx(PI_12, abs=1e-14)


def test_distance_matrix_matches_pairwise_distance(rng, d64):
    pts = [random_point(d64, rng, amplitude=0.6) for _ in range(12)]
    m = distance_matrix(DensitySet(pts))
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            assert abs(m[i, j] - distance(a, b).d) <= 1e-14


def test_distance_matrix_takes_near_pairs_from_distance(rng, d16):
    # arccos of a Gram cosine near 1 loses the angle: pairs 1e-7 apart would
    # read 0, so the matrix must give them distance's own bits
    a = random_point(d16, rng)
    n = rng.standard_normal(16)
    pts = [a] + [project_to_space(d16, a.values + eps * n) for eps in (2e-7, 1e-3, 0.1)]
    pts.append(random_point(d16, rng, amplitude=0.8))
    m = distance_matrix(DensitySet(pts))
    for i, p in enumerate(pts):
        for j, q in enumerate(pts[i + 1 :], i + 1):
            d = distance(p, q).d
            assert d > 0.0
            assert m[i, j] == m[j, i]
            assert abs(m[i, j] - d) <= 1e-14
            if d < 0.1:
                assert m[i, j] == d


def test_distance_matrix_triangle_inequality(rng, d16):
    pts = [random_point(d16, rng, amplitude=0.6) for _ in range(6)]
    m = distance_matrix(DensitySet(pts))
    assert np.array_equal(m, m.T)
    assert np.all(np.diag(m) == 0.0)
    n = len(pts)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert m[i, k] <= m[i, j] + m[j, k] + 1e-12


def test_distance_matrix_node_relabel_equivariance(rng, d16):
    pts = [random_point(d16, rng, amplitude=0.6) for _ in range(4)]
    m = distance_matrix(DensitySet(pts))
    perm = rng.permutation(16)
    dom = QuadratureDomain(weights=d16.weights[perm], vol=d16.vol)
    relabeled = [project_to_space(dom, p.values[perm]) for p in pts]
    m2 = distance_matrix(DensitySet(relabeled))
    assert np.allclose(m, m2, rtol=1e-13, atol=1e-15)
