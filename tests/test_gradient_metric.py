import math

import numpy as np
import pytest

from calabi import (
    ConstraintError,
    DomainMismatchError,
    GridPotential,
    GridTangent,
    grad_forward,
    gradient_admissible_interval,
    gradient_cov_deriv,
    gradient_curvature,
    gradient_geodesic,
    gradient_inner,
    gradient_inner_gradform,
    laplacian,
    make_normalized_domain,
    make_torus_grid,
    make_grid_potential,
    normalization_value,
    project_to_grid_tangent,
)


@pytest.fixture
def grid8():
    return make_torus_grid(8, 8, 1.0)


@pytest.fixture
def phi0(grid8):
    xs = np.arange(8) / 8.0
    pattern = 0.002 * np.cos(2.0 * np.pi * xs)[:, None] * np.cos(2.0 * np.pi * xs)[None, :]
    return make_grid_potential(grid8, pattern.reshape(-1))


def small_tangent(phi, rng, amplitude=0.02):
    return project_to_grid_tangent(phi, amplitude * rng.standard_normal(phi.domain.node_count))


def test_laplacian_of_constant_is_zero(grid8):
    assert np.array_equal(laplacian(grid8, np.full(64, 3.7)), np.zeros(64))


def test_laplacian_matches_divergence_of_gradient(grid8, rng):
    # backward-of-forward must reproduce the 5-point stencil exactly
    f = rng.standard_normal(64)
    gx, gy = grad_forward(grid8, f)
    h = grid8.grid.spacing
    gx2 = gx.reshape(8, 8)
    gy2 = gy.reshape(8, 8)
    div = (gx2 - np.roll(gx2, 1, axis=0) + gy2 - np.roll(gy2, 1, axis=1)) / h
    assert np.allclose(div.reshape(-1), laplacian(grid8, f), atol=1e-12)


def test_requires_grid_domain():
    plain = make_normalized_domain(16)
    with pytest.raises(DomainMismatchError, match="grid"):
        laplacian(plain, np.zeros(16))
    with pytest.raises(DomainMismatchError, match="grid"):
        make_grid_potential(plain, np.zeros(16))


def test_normalization_is_exact(grid8, rng):
    raw = 0.001 * rng.standard_normal(64)
    phi = make_grid_potential(grid8, raw)
    assert abs(normalization_value(grid8, phi.values)) <= 1e-12


def test_potential_positivity_enforced(grid8):
    spike = np.zeros(64)
    spike[0] = 1.0  # laplacian amplitude 8/h^2 = 512 at the spike
    with pytest.raises(ConstraintError, match="positive"):
        GridPotential(grid8, spike)


def test_potential_normalization_enforced(grid8):
    values = np.full(64, 0.5)  # constant: positivity fine, normalization off
    with pytest.raises(ConstraintError, match="normalization"):
        GridPotential(grid8, values)


def test_tangent_constraint(phi0, rng):
    with pytest.raises(ConstraintError, match="project_to_grid_tangent"):
        GridTangent(phi0, np.full(64, 1.0))
    psi = small_tangent(phi0, rng)
    pairing = float(np.dot(psi.values * phi0.conformal_weight(), phi0.domain.weights))
    assert abs(pairing) <= 1e-12


def test_constant_projects_to_zero_and_pairs_to_zero(phi0, rng):
    psi = project_to_grid_tangent(phi0, np.full(64, 2.5))
    assert np.allclose(psi.values, 0.0, atol=1e-12)
    chi = small_tangent(phi0, rng)
    assert gradient_inner(phi0, psi, chi) == pytest.approx(0.0, abs=1e-14)


def test_metric_forms_agree_on_cosine_pattern(grid8):
    xs = np.arange(8) / 8.0
    pattern = np.cos(2.0 * np.pi * xs)[:, None] * np.ones(8)[None, :]
    phi = make_grid_potential(grid8, np.zeros(64))
    psi = project_to_grid_tangent(phi, pattern.reshape(-1))
    lhs = gradient_inner(phi, psi, psi)
    rhs = gradient_inner_gradform(phi, psi, psi)
    assert abs(lhs - rhs) <= 1e-12
    assert lhs > 0.0


def test_metric_forms_agree_on_random_fields(phi0, rng):
    for _ in range(10):
        psi = small_tangent(phi0, rng)
        chi = small_tangent(phi0, rng)
        assert abs(gradient_inner(phi0, psi, chi) - gradient_inner_gradform(phi0, psi, chi)) <= 1e-12
        assert gradient_inner(phi0, psi, chi) == pytest.approx(
            gradient_inner(phi0, chi, psi), rel=1e-13, abs=1e-16
        )


def test_inner_is_positive_semidefinite(phi0, rng):
    for _ in range(5):
        psi = small_tangent(phi0, rng)
        assert gradient_inner(phi0, psi, psi) >= 0.0


def test_inner_is_potential_independent(grid8, phi0, rng):
    # conformal form: -sum psi (lap chi / (1+lap phi)) (1+lap phi) w
    psi = small_tangent(phi0, rng)
    chi = small_tangent(phi0, rng)
    weight = phi0.conformal_weight()
    conformal = -float(
        np.dot(psi.values * (laplacian(grid8, chi.values) / weight) * weight, grid8.weights)
    )
    assert abs(conformal - gradient_inner(phi0, psi, chi)) <= 1e-10


def test_cov_deriv_constant_curve_and_section(phi0, rng):
    psi = small_tangent(phi0, rng)
    times = [-0.1, 0.0, 0.1]
    out = gradient_cov_deriv(times, [phi0] * 3, np.tile(psi.values, (3, 1)), 1)
    assert np.allclose(out, 0.0, atol=1e-14)


def test_cov_deriv_annihilates_geodesic_velocity(phi0, rng):
    psi0 = small_tangent(phi0, rng)
    dom = phi0.domain
    energy = gradient_inner(phi0, psi0, psi0)
    t_hi = gradient_admissible_interval(phi0, psi0)[1]
    dt = min(0.1 * t_hi, 0.05)
    times = [-dt, 0.0, dt]
    potentials = [gradient_geodesic(phi0, psi0, t) if t else phi0 for t in times]
    velocity = lambda t: (energy / dom.vol) * t + psi0.values
    sections = np.array([velocity(t) for t in times])
    out = gradient_cov_deriv(times, potentials, sections, 1)
    assert float(np.max(np.abs(out))) <= 1e-10


def test_cov_deriv_metric_compatibility(phi0, rng):
    psi0 = small_tangent(phi0, rng)
    t_hi = gradient_admissible_interval(phi0, psi0)[1]
    dt = min(0.05 * t_hi, 0.01)
    times = [-dt, 0.0, dt]
    potentials = [gradient_geodesic(phi0, psi0, t) if t else phi0 for t in times]
    raw = 0.02 * rng.standard_normal(64)
    sections = np.array(
        [project_to_grid_tangent(p, raw).values for p in potentials]
    )
    out = gradient_cov_deriv(times, potentials, sections, 1)

    def pairing(i):
        return -float(
            np.dot(
                sections[i] * laplacian(phi0.domain, sections[i]),
                phi0.domain.weights,
            )
        )

    lhs = (pairing(2) - pairing(0)) / (2.0 * dt)
    rhs = -2.0 * float(
        np.dot(out * laplacian(phi0.domain, sections[1]), phi0.domain.weights)
    )
    assert lhs == pytest.approx(rhs, abs=1e-6)


def test_geodesic_zero_velocity(phi0):
    zero = project_to_grid_tangent(phi0, np.zeros(64))
    out = gradient_geodesic(phi0, zero, 12.0)
    assert np.allclose(out.values, phi0.values, atol=1e-15)


def test_geodesic_quadratic_term_is_spatially_constant(phi0, rng):
    psi0 = small_tangent(phi0, rng)
    t_hi = gradient_admissible_interval(phi0, psi0)[1]
    t = 0.4 * min(t_hi, -gradient_admissible_interval(phi0, psi0)[0])
    fwd = gradient_geodesic(phi0, psi0, t).values
    bwd = gradient_geodesic(phi0, psi0, -t).values
    quad = fwd + bwd - 2.0 * phi0.values  # 2 * quadratic term * t^2
    assert np.ptp(quad) <= 1e-14
    lin = fwd - bwd  # 2 * psi0 * t
    assert np.allclose(lin, 2.0 * t * psi0.values, atol=1e-13)


def test_geodesic_velocity_stays_tangent(phi0, rng):
    psi0 = small_tangent(phi0, rng)
    dom = phi0.domain
    energy = gradient_inner(phi0, psi0, psi0)
    t_hi = gradient_admissible_interval(phi0, psi0)[1]
    for t in (0.2 * t_hi, 0.7 * t_hi):
        point = gradient_geodesic(phi0, psi0, t)
        vel = (energy / dom.vol) * t + psi0.values
        pairing = float(np.dot(vel * point.conformal_weight(), dom.weights))
        assert abs(pairing) <= 1e-10


def test_geodesic_positivity_error_reports_interval(phi0, rng):
    psi0 = small_tangent(phi0, rng)
    t_lo, t_hi = gradient_admissible_interval(phi0, psi0)
    assert t_lo < 0.0 < t_hi
    with pytest.raises(ValueError, match="admissible interval"):
        gradient_geodesic(phi0, psi0, 2.0 * t_hi)


def test_curvature_vanishes(phi0, rng):
    args = [small_tangent(phi0, rng) for _ in range(4)]
    value = gradient_curvature(phi0, *args)
    assert abs(value) <= 1e-6
    swapped = gradient_curvature(phi0, args[1], args[0], args[2], args[3])
    assert abs(swapped) <= 1e-6


def test_basepoint_mismatch(grid8, phi0, rng):
    other = make_grid_potential(grid8, 0.001 * rng.standard_normal(64))
    psi = small_tangent(phi0, rng)
    chi = small_tangent(other, rng)
    with pytest.raises(DomainMismatchError):
        gradient_inner(phi0, psi, chi)
