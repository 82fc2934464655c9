import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calabi import (
    QuadratureDomain,
    distance,
    integrate,
    load_domain,
    make_normalized_domain,
    make_torus_grid,
    random_point,
)
from calabi.quadrature import _read_json, domain_from_dict


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


@pytest.mark.parametrize("nodes", [64, 8192, 8193, 10000, 65536])
def test_integrate_stack_matches_rows(rng, nodes):
    # A stack is summed one row at a time, so each row gets the bits of the
    # field integrated on its own by construction, in either memory layout.
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
    # cos(t0) = 1 - 2 (m / rho)^2, with the half-chord m = |h1 - h0| summed by
    # integrate from e^max(u0, u1) expm1(-|u1 - u0|/2)^2 = (h1 - h0)^2 at each node
    chord = np.exp(np.maximum(u1.values, u0.values))
    chord *= np.expm1(-0.5 * np.abs(u1.values - u0.values)) ** 2
    ratio = np.sqrt(integrate(dom, chord)) / dom.radius
    assert distance(u0, u1).cosine == 1.0 - 2.0 * ratio * ratio


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
    with pytest.raises(ValueError, match="1D"):
        domain_from_dict({"weights": [[0.1, 0.1], [0.1, 0.1]]})
    with pytest.raises(ValueError, match="does not match"):
        domain_from_dict({"weights": [0.1] * 10, "grid": {"nx": 3, "ny": 4}})
    with pytest.raises(ValueError, match="uniform"):
        domain_from_dict({"weights": [0.1] * 8 + [0.2], "grid": {"nx": 3, "ny": 3}})


@pytest.fixture(scope="module")
def json_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "numbers.json"


def read_bits(path, texts: list[str]) -> np.ndarray:
    """The bits of the doubles ``_read_json`` reads from the JSON array of ``texts``."""
    path.write_text("[" + ",".join(texts) + "]")
    return np.array(_read_json(path), dtype=float).view(np.uint64)


def float_bits(texts: list[str]) -> np.ndarray:
    return np.array([float(t) for t in texts]).view(np.uint64)


# Every finite double, subnormals and both zeros included.
FINITE = st.floats(allow_nan=False, allow_infinity=False)

# Decimal numbers of up to 50 significant digits; JSON writes an integer
# without a fraction, so the sign of -0 is not one of its doubles.
DECIMALS = st.builds(
    "{}{}.{}{}".format,
    st.sampled_from(["", "-"]),
    st.integers(0, 10**25 - 1),
    st.text("0123456789", min_size=1, max_size=25),
    st.one_of(st.just(""), st.integers(-360, 330).map("e{}".format)),
).filter(lambda text: math.isfinite(float(text)))


@settings(max_examples=100, deadline=None)
@given(st.lists(FINITE, min_size=1, max_size=100))
@example([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308])
def test_reader_gives_every_finite_double_its_own_bits(json_path, values):
    texts = [repr(v) for v in values] + [f"{v:.25e}" for v in values]
    assert np.array_equal(read_bits(json_path, texts), float_bits(texts))


@settings(max_examples=100, deadline=None)
@given(st.lists(DECIMALS, min_size=1, max_size=100))
@example(["9007199254740993.0", "2.4703282292062327e-324", "2.4703282292062328e-324", "1.7976931348623158e308"])
@example(["0.1000000000000000055511151231257827", "7.2057594037927933e16", "-0.0e5"])
def test_reader_rounds_long_decimals_as_float_does(json_path, texts):
    assert np.array_equal(read_bits(json_path, texts), float_bits(texts))
