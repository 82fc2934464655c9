import json

import numpy as np
import pytest

from calabi import (
    ConformalFactor,
    ConstraintError,
    DomainMismatchError,
    TangentVector,
    inner,
    integrate,
    load_density,
    make_normalized_domain,
    norm,
    project_to_space,
    project_to_tangent,
    random_point,
    random_tangent,
    zero_tangent,
)
from calabi.space import density_to_dict

LOG15 = 0.4054651081081644  # log 1.5
LOG05 = -0.6931471805599453  # log 0.5


def test_project_to_space_identity(d2):
    u = project_to_space(d2, np.zeros(2))
    assert np.array_equal(u.values, np.zeros(2))


def test_project_to_space_quotients_constants(d2):
    for c in (-3.0, 0.7, 42.0):
        u = project_to_space(d2, np.full(2, c))
        assert np.allclose(u.values, 0.0, atol=1e-14)


def test_project_to_space_worked_example(d2):
    u = project_to_space(d2, np.array([np.log(3.0), np.log(1.0)]))
    assert np.allclose(u.values, [LOG15, LOG05], atol=1e-15)
    assert integrate(d2, u.density()) == pytest.approx(0.25, rel=1e-14)


def test_project_to_space_idempotent_and_shift_invariant(rng, d64):
    raw = rng.standard_normal(64)
    u = project_to_space(d64, raw)
    again = project_to_space(d64, u.values)
    assert np.allclose(again.values, u.values, atol=1e-14)
    shifted = project_to_space(d64, raw + 17.5)
    assert np.allclose(shifted.values, u.values, atol=1e-12)


def test_project_to_space_overflow(d2):
    # e^800 overflows float64; the shift by max(raw) keeps it representable.
    big = project_to_space(d2, np.array([800.0, 0.0]))
    assert np.array_equal(big.values, project_to_space(d2, np.array([0.0, -800.0])).values)
    with pytest.raises(ValueError, match="overflows"):
        project_to_space(d2, np.array([1e308, -1e308]))
    with pytest.raises(ValueError, match="finite"):
        project_to_space(d2, np.array([np.nan, 0.0]))


def test_project_to_tangent_examples(u0_d2):
    v = project_to_tangent(u0_d2, np.array([1.0, -1.0]))
    assert np.array_equal(v.values, [1.0, -1.0])
    v = project_to_tangent(u0_d2, np.array([1.0, 1.0]))
    assert np.allclose(v.values, 0.0, atol=1e-15)
    v = project_to_tangent(u0_d2, np.array([2.0, 0.0]))
    assert np.allclose(v.values, [1.0, -1.0], atol=1e-15)


def test_project_to_tangent_is_orthogonal_projection(rng, d64):
    u = random_point(d64, rng)
    raw = rng.standard_normal(64)
    v = project_to_tangent(u, raw)
    again = project_to_tangent(u, v.values)
    assert np.allclose(again.values, v.values, atol=1e-13)
    residual = raw - v.values
    for _ in range(5):
        t = random_tangent(u, rng)
        pairing = integrate(d64, residual * t.values * u.density())
        assert abs(pairing) < 1e-10


def test_inner_worked_values(u0_d2):
    v = project_to_tangent(u0_d2, np.array([1.0, -1.0]))
    w = project_to_tangent(u0_d2, np.array([-1.0, 1.0]))
    assert inner(u0_d2, v, v) == 0.25
    assert norm(u0_d2, v) == 0.5
    assert inner(u0_d2, v, w) == -0.25
    assert inner(u0_d2, v, zero_tangent(u0_d2)) == 0.0


def test_inner_symmetric_positive(rng, d64):
    u = random_point(d64, rng)
    for _ in range(10):
        v = random_tangent(u, rng)
        w = random_tangent(u, rng)
        assert inner(u, v, w) == inner(u, w, v)
        assert inner(u, v, v) >= 0.0
    assert inner(u, zero_tangent(u), zero_tangent(u)) == 0.0


def test_inner_definiteness(rng, d64):
    u = random_point(d64, rng)
    v = random_tangent(u, rng)
    if norm(u, v) == 0.0:
        assert np.allclose(v.values, 0.0, atol=1e-15)


def test_basepoint_mismatch(rng, d64):
    u = random_point(d64, rng)
    other = random_point(d64, rng)
    v = random_tangent(u, rng)
    w = random_tangent(other, rng)
    with pytest.raises(DomainMismatchError):
        inner(u, v, w)


def test_membership_validation(d2, u0_d2):
    with pytest.raises(ConstraintError, match="project_to_space"):
        ConformalFactor(d2, np.array([1.0, 1.0]))
    with pytest.raises(ConstraintError, match="project_to_tangent"):
        TangentVector(u0_d2, np.array([1.0, 0.0]))


def test_load_density_u_form(tmp_path, d2):
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"domain": {"weights": [0.125, 0.125]}, "u": [LOG15, LOG05]}))
    u = load_density(path)
    assert np.allclose(u.values, [LOG15, LOG05], atol=1e-15)


def test_load_density_density_form_is_projected(d2):
    u = load_density({"density": [3.0, 1.0]}, domain=d2)
    assert np.allclose(u.values, [LOG15, LOG05], atol=1e-14)
    with pytest.raises(ValueError, match="positive"):
        load_density({"density": [1.0, 0.0]}, domain=d2)


def test_load_density_requires_domain_and_field(d2):
    with pytest.raises(ValueError, match="domain"):
        load_density({"u": [0.0, 0.0]})
    with pytest.raises(ValueError, match='"u" or "density"'):
        load_density({}, domain=d2)


def test_density_round_trip(rng, d16):
    u = random_point(d16, rng)
    back = load_density(density_to_dict(u))
    assert np.allclose(back.values, u.values, atol=1e-15)
    assert np.array_equal(back.domain.weights, d16.weights)
