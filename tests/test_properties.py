"""Property tests for the two-point geometry, at the tolerances of the
example-based tests.

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
    distance,
    evaluate,
    exp_map,
    geodesic_dirichlet,
    karcher_mean,
    log_map,
    make_normalized_domain,
    norm,
    project_to_space,
    random_point,
)

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
