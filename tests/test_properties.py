"""Property tests for the two-point geometry, at the tolerances of the
example-based tests, and for parallel transport along drawn geodesics.

Points are drawn as generic random fields: hypothesis picks the node count,
the quadrature weights, the amplitude and the seed.  Besides generic pairs,
the two-point properties cover pairs 1e-9 apart and points whose density is
within 1e-12 of zero at one node, the near edge of the space; distances there
are scored against the scalar fsum chord of ``chord_reference``.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from calabi import (
    DensitySet,
    QuadratureDomain,
    TangentVector,
    distance,
    evaluate,
    exp_map,
    geodesic_cauchy,
    geodesic_dirichlet,
    immerse,
    inner,
    karcher_mean,
    log_map,
    make_normalized_domain,
    norm,
    parallel_transport,
    project_to_space,
    project_to_tangent,
    random_point,
    random_tangent,
)
from calabi.verify import random_admissible_tangent
from chord_reference import reference_distance

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def domains(draw, max_nodes=32):
    """A normalized equal-weight domain, or one with random weights."""
    n = draw(st.integers(2, max_nodes))
    if draw(st.booleans()):
        return make_normalized_domain(n)
    weights = draw(arrays(np.float64, n, elements=st.floats(0.1, 10.0)))
    return QuadratureDomain(weights=weights, vol=math.fsum(weights.tolist()))


@st.composite
def point_sets(draw, count):
    """``count`` random points on one drawn domain."""
    dom = draw(domains())
    amplitude = draw(st.floats(0.05, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [random_point(dom, rng, amplitude=amplitude) for _ in range(count)]


@st.composite
def transports(draw):
    """A geodesic on a drawn domain, a time up to 0.95 of the way to either
    end of its interval, and two tangents at its start."""
    dom = draw(domains())
    amplitude = draw(st.floats(0.05, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frac = draw(st.floats(-0.95, 0.95))
    u0 = random_point(dom, rng, amplitude=amplitude)
    seg = geodesic_cauchy(u0, random_admissible_tangent(u0, rng))
    t = frac * (seg.t_max if frac > 0 else -seg.t_min)
    return seg, t, random_tangent(u0, rng), random_tangent(u0, rng)


@PROPERTY
@given(point_sets(2))
def test_exp_of_log_returns_the_point(pts):
    u0, w = pts
    back = exp_map(u0, log_map(u0, w))
    assert float(np.max(np.abs(back.values - w.values))) < 1e-9


@PROPERTY
@given(point_sets(2))
def test_log_norm_equals_distance(pts):
    u0, w = pts
    assert math.isclose(norm(u0, log_map(u0, w)), distance(u0, w).d, abs_tol=1e-13)


@PROPERTY
@given(point_sets(1), st.integers(0, 2**32 - 1))
def test_log_of_exp_returns_the_velocity_in_either_order(pts, seed):
    (u0,) = pts
    v = random_admissible_tangent(u0, np.random.default_rng(seed))
    w = exp_map(u0, v)
    assert float(np.max(np.abs(log_map(u0, w).values - v.values))) < 1e-9
    back = exp_map(w, log_map(w, u0))
    assert float(np.max(np.abs(back.values - u0.values))) < 1e-9
    assert distance(u0, w).d == distance(w, u0).d
    assert math.isclose(norm(u0, v), distance(u0, w).d, abs_tol=1e-13)


@st.composite
def near_pairs(draw):
    """A drawn point and its projection after a step of 1e-9 along a random
    field."""
    (u0,) = draw(point_sets(1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = rng.standard_normal(u0.domain.node_count)
    step *= 1e-9 / float(np.max(np.abs(step)))
    return u0, project_to_space(u0.domain, u0.values + step)


@PROPERTY
@given(near_pairs())
def test_a_point_1e_9_away(pair):
    u0, w = pair
    d = distance(u0, w).d
    assert d > 0.0 and d == distance(w, u0).d
    assert math.isclose(d, reference_distance(u0, w), rel_tol=1e-13)
    assert math.isclose(norm(u0, log_map(u0, w)), d, rel_tol=1e-13)
    back = exp_map(u0, log_map(u0, w))
    assert float(np.max(np.abs(back.values - w.values))) < 1e-9


@st.composite
def edge_pairs(draw):
    """A point whose density is within 1e-12 of zero at one drawn node, and
    a generic point on the same domain."""
    u0, w = draw(point_sets(2))
    node = draw(st.integers(0, u0.domain.node_count - 1))
    raw = u0.values.copy()
    raw[node] = math.log(draw(st.floats(1e-14, 1e-12)))
    edge = project_to_space(u0.domain, raw)
    assume(float(np.exp(edge.values[node])) <= 1e-12)
    return edge, w


@PROPERTY
@given(edge_pairs())
def test_a_point_next_to_the_boundary(pair):
    edge, w = pair
    d = distance(edge, w).d
    assert d == distance(w, edge).d
    assert math.isclose(d, reference_distance(edge, w), rel_tol=1e-13)
    v = log_map(edge, w)
    assert math.isclose(norm(edge, v), d, rel_tol=1e-13)
    back = exp_map(edge, v)
    assert float(np.max(np.abs(back.values - w.values))) < 1e-9
    # From w, the log's entry at the edge node is -2 theta cos(theta)/sin(theta)
    # plus a term of the size of the edge's e^(u/2), about 1e-6, so rounding
    # the log leaves that node's u known only to about 1e-16 / 1e-6.  This
    # round trip is scored on the sphere images, which it keeps to rounding.
    v = log_map(w, edge)
    assert math.isclose(norm(w, v), d, rel_tol=1e-13)
    back = exp_map(w, v)
    assert float(np.max(np.abs(immerse(back) - immerse(edge)))) < 1e-9


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.floats(-3100.0, -2900.0), st.floats(1e160, 1e300))
def test_norm_is_finite_where_the_density_underflows(seed, edge, large):
    # v^2 overflows at node 0 and e^u underflows there; (v h)^2 is 0.
    d16 = make_normalized_domain(16)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(16)
    raw[0] = edge
    u = project_to_space(d16, raw)
    r = rng.standard_normal(16)
    r[0] = large
    v = project_to_tangent(u, r)
    h = np.exp(0.5 * u.values)
    terms = d16.weights * (v.values * h) ** 2
    reference = math.sqrt(math.fsum(terms.tolist()))
    assert math.isclose(norm(u, v), reference, rel_tol=1e-15)


@PROPERTY
@given(point_sets(3))
def test_triangle_inequality(pts):
    a, b, c = pts
    assert distance(a, c).d <= distance(a, b).d + distance(b, c).d + 1e-12


@PROPERTY
@given(st.data(), st.floats(-100.0, 100.0))
def test_project_to_space_ignores_constant_shifts(data, shift):
    dom = data.draw(domains())
    raw = data.draw(arrays(np.float64, dom.node_count, elements=st.floats(-5.0, 5.0)))
    u = project_to_space(dom, raw)
    shifted = project_to_space(dom, raw + shift)
    assert np.allclose(shifted.values, u.values, atol=1e-12)


@PROPERTY
@given(point_sets(2))
def test_mean_of_two_is_the_dirichlet_midpoint(pts):
    u0, u1 = pts
    dom = u0.domain
    # the mean is well posed only below this separation
    assume(distance(u0, u1).d < 0.5 * math.pi * dom.radius - 1e-3)
    mean = karcher_mean(DensitySet([u0, u1]), tol=1e-12)
    seg, t0 = geodesic_dirichlet(u0, u1)
    assert np.allclose(mean.values, evaluate(seg, t0 / 2.0).values, atol=1e-10)


@PROPERTY
@given(transports())
def test_transport_preserves_metric_pairings(drawn):
    seg, t, a, b = drawn
    pa, pb = parallel_transport(seg, a, t), parallel_transport(seg, b, t)
    before = inner(seg.start, a, b)
    after = inner(pa.basepoint, pa, pb)
    assert abs(after - before) <= 1e-12 * norm(seg.start, a) * norm(seg.start, b)


@PROPERTY
@given(transports())
def test_transport_of_the_velocity_is_the_velocity(drawn):
    seg, t, _, _ = drawn
    moved = parallel_transport(seg, seg.velocity, t)
    assert float(np.max(np.abs(moved.values - seg.velocity_values(t)))) <= 1e-12


@PROPERTY
@given(transports())
def test_transport_back_along_the_geodesic_returns_the_vector(drawn):
    seg, t, a, _ = drawn
    moved = parallel_transport(seg, a, t)
    u_t = moved.basepoint
    back = geodesic_cauchy(u_t, TangentVector(u_t, seg.velocity_values(t)))
    returned = parallel_transport(back, moved, -t)
    assert float(np.max(np.abs(returned.values - a.values))) <= 1e-12
