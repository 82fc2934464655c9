import json
import math

import numpy as np
import pytest

from calabi import (
    QuadratureDomain,
    distance,
    integrate,
    load_domain,
    make_normalized_domain,
    make_torus_grid,
    random_point,
)
from calabi.quadrature import domain_from_dict


def test_integrate_constant_is_volume(d2, d3):
    assert integrate(d2, np.ones(2)) == pytest.approx(0.25, rel=1e-15)
    assert integrate(d3, np.ones(3)) == pytest.approx(0.25, rel=1e-15)
    grid = make_torus_grid(4, 4, 2.0)
    assert integrate(grid, np.ones(16)) == pytest.approx(2.0, rel=1e-15)


def test_integrate_antisymmetric_field(d2):
    assert integrate(d2, np.array([1.0, -1.0])) == 0.0


def test_integrate_direct_weighted_sum(d2):
    # oracle: 1.5/8 + 0.5/8
    assert integrate(d2, np.array([1.5, 0.5])) == 0.25


def test_integrate_length_mismatch(d2):
    for field in (np.ones(3), np.ones((4, 3)), np.ones((2, 2, 2)), 1.0):
        with pytest.raises(ValueError, match="shape"):
            integrate(d2, field)


@pytest.mark.parametrize("nodes", [64, 8192, 8193, 10000])
def test_integrate_stack_matches_rows(rng, nodes):
    # Past 8192 nodes a single einsum over the stack would round its rows
    # differently from the same fields integrated on their own; Fortran-ordered
    # stacks are summed row by row at every size.
    weights = rng.uniform(0.5, 1.5, nodes)
    dom = QuadratureDomain(weights=weights, vol=math.fsum(weights.tolist()))
    fields = rng.standard_normal((5, nodes))
    for stack in (fields, np.asfortranarray(fields)):
        out = integrate(dom, stack)
        assert out.shape == (5,)
        assert np.array_equal(out, [integrate(dom, f) for f in stack])


@pytest.mark.parametrize("nodes", [64, 4096, 65536])
def test_equal_fields_integrate_to_the_same_bits_whatever_their_layout(rng, nodes):
    # einsum sums a strided row in another order than a contiguous one.
    weights = rng.uniform(0.5, 1.5, nodes)
    dom = QuadratureDomain(weights=weights, vol=math.fsum(weights.tolist()))
    fields = rng.standard_normal((5, nodes))
    expected = [integrate(dom, f.copy()) for f in fields]
    wide = np.zeros((5, 2 * nodes))
    wide[:, ::2] = fields
    for stack in (np.asfortranarray(fields), wide[:, ::2]):
        assert not stack[0].flags.c_contiguous
        assert [integrate(dom, row) for row in stack] == expected
        assert integrate(dom, stack).tolist() == expected
    strided_weights = np.zeros(2 * nodes)
    strided_weights[::2] = weights
    strided_dom = QuadratureDomain(weights=strided_weights[::2], vol=dom.vol)
    assert [integrate(strided_dom, f) for f in fields] == expected


@pytest.mark.parametrize("nodes", [64, 65536])
def test_distance_cosine_is_the_integral(rng, nodes):
    dom = make_normalized_domain(nodes)
    u0, u1 = random_point(dom, rng), random_point(dom, rng)
    expected = integrate(dom, np.exp(0.5 * (u0.values + u1.values))) / dom.vol
    assert distance(u0, u1).cosine == expected


def test_normalized_domain_weights():
    assert np.array_equal(make_normalized_domain(2).weights, [0.125, 0.125])
    d3 = make_normalized_domain(3)
    assert np.allclose(d3.weights, 1.0 / 12.0, rtol=1e-15)
    assert make_normalized_domain(100).vol == 0.25
    assert make_normalized_domain(100).radius == 1.0


def test_normalized_domain_too_small():
    with pytest.raises(ValueError, match="at least 2"):
        make_normalized_domain(1)


def test_torus_grid_construction():
    g = make_torus_grid(4, 4, 0.25)
    assert g.node_count == 16
    assert np.array_equal(g.weights, np.full(16, 1.0 / 64.0))
    assert g.grid.spacing == pytest.approx(0.125, rel=1e-15)
    assert make_torus_grid(8, 8, 1.0).vol == 1.0


def test_torus_grid_rejects_bad_arguments():
    with pytest.raises(ValueError, match="nx, ny"):
        make_torus_grid(2, 4, 1.0)
    with pytest.raises(ValueError, match="positive"):
        make_torus_grid(4, 4, 0.0)


def test_domain_validation():
    with pytest.raises(ValueError, match="positive"):
        QuadratureDomain(weights=np.array([0.5, -0.5]), vol=0.0)
    with pytest.raises(ValueError, match="at least 2"):
        QuadratureDomain(weights=np.array([1.0]), vol=1.0)
    with pytest.raises(ValueError, match="differs from sum"):
        QuadratureDomain(weights=np.array([0.5, 0.5]), vol=2.0)


def test_nan_volume_is_rejected():
    with pytest.raises(ValueError, match="differs from sum"):
        QuadratureDomain(weights=np.array([0.5, 0.5]), vol=math.nan)


def test_integrate_linearity(rng, d64):
    for _ in range(20):
        f = rng.standard_normal(64)
        g = rng.standard_normal(64)
        a, b = rng.standard_normal(2)
        lhs = integrate(d64, a * f + b * g)
        rhs = a * integrate(d64, f) + b * integrate(d64, g)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_integrate_nonnegative(rng, d64):
    for _ in range(20):
        f = np.abs(rng.standard_normal(64))
        assert integrate(d64, f) >= 0.0


def test_json_round_trip(tmp_path):
    g = make_torus_grid(4, 5, 0.75)
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(g.to_dict()))
    back = load_domain(path)
    assert np.array_equal(back.weights, g.weights)
    assert back.grid.nx == 4 and back.grid.ny == 5
    assert back.vol == pytest.approx(0.75, rel=1e-14)


def test_domain_from_dict_errors():
    with pytest.raises(ValueError, match="weights"):
        domain_from_dict({})
    with pytest.raises(ValueError, match="does not match"):
        domain_from_dict({"weights": [0.1] * 10, "grid": {"nx": 3, "ny": 4}})
    with pytest.raises(ValueError, match="uniform"):
        domain_from_dict({"weights": [0.1] * 8 + [0.2], "grid": {"nx": 3, "ny": 3}})
