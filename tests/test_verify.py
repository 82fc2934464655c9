import numpy as np

from calabi import (
    TangentVector,
    arccot,
    geodesic_cauchy,
    inner,
    make_normalized_domain,
    norm,
    random_point,
    random_tangent,
)
from calabi.verify import immersion_isometry_error, random_admissible_tangent, run_report


def test_random_admissible_tangent_is_admissible(rng, d64):
    u0 = random_point(d64, rng, amplitude=0.5)
    for _ in range(50):
        v = random_admissible_tangent(u0, rng)
        n = norm(u0, v)
        bound = d64.radius * arccot(
            -d64.radius * float(np.min(v.values / n)) / 2.0
        )
        assert n < bound
        assert geodesic_cauchy(u0, v).t_max > 1.0


def test_run_report_small_domain():
    report = run_report(make_normalized_domain(3), seed=4)
    assert report["passed"], report["failures"]
    assert report["sectional_curvature"] == 1.0
    assert "diameter_best" not in report  # too few nodes for the sequences


def test_run_report_medium_domain():
    report = run_report(make_normalized_domain(32), seed=4)
    assert report["passed"], report["failures"]
    assert report["diameter_best"] < np.pi / 2.0
    assert report["boundary_best"] > 0.0
    assert report["conjugate_scan"]["conjugate_found"] is False
    assert report["curvature_fd_abs_err"] < 1e-3


def test_immersion_isometry_error_on_near_orthogonal_tangents(rng):
    # the product of near-orthogonal tangents is pure rounding, so an error
    # relative to the product itself is meaningless; relative to the norms
    # it stays at machine precision
    dom = make_normalized_domain(1024)
    for _ in range(20):
        u0 = random_point(dom, rng, amplitude=0.3)
        t1 = random_tangent(u0, rng)
        raw = random_tangent(u0, rng)
        coef = inner(u0, raw, t1) / inner(u0, t1, t1)
        t2 = TangentVector(u0, raw.values - coef * t1.values)
        scale = norm(u0, t1) * norm(u0, t2)
        assert abs(inner(u0, t1, t2)) <= 1e-14 * scale
        assert immersion_isometry_error(u0, t1, t2) <= 1e-13
