"""Property tests for the two-point geometry, at the tolerances of the
example-based tests, and for parallel transport along drawn geodesics.

Points are drawn as generic random fields: hypothesis picks the node count,
the quadrature weights, the amplitude and the seed.  Pairs closer than about
1e-6 are not targeted; there ``arccos`` of the cosine loses accuracy and
``distance`` and ``log_map`` return exactly zero below about 1e-7.
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
    inner,
    karcher_mean,
    log_map,
    make_normalized_domain,
    norm,
    parallel_transport,
    project_to_space,
    random_point,
    random_tangent,
)
from calabi.verify import random_admissible_tangent

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
