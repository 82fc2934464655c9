"""Tests of the benchmark's tracer: wrapper installation and span arithmetic."""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import calabi  # noqa: E402
from spans import Span, Tracer, layer_totals, package_modules, self_times  # noqa: E402


def _public_functions(modules):
    found = {}
    for module in modules:
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                found[id(fn)] = fn
    return found


@pytest.fixture
def installed():
    tracer = Tracer()
    modules = package_modules(calabi)
    before = {(m.__name__, attr): value for m in modules for attr, value in vars(m).items()}
    public = _public_functions(modules)
    tracer.install(calabi)
    try:
        yield tracer, modules, before, public
    finally:
        tracer.uninstall()


def test_every_binding_of_every_public_function_is_wrapped(installed):
    tracer, modules, before, public = installed
    rebound = 0
    for module in modules:
        for attr, value in vars(module).items():
            original = before[(module.__name__, attr)]
            if id(original) in public:
                assert value is not original, f"{module.__name__}.{attr} is not wrapped"
                assert value.__wrapped__ is original
                rebound += 1
    # names imported into other modules share the defining module's wrapper
    assert calabi.stats.distance is calabi.geodesics.distance
    assert calabi.verify.distance is calabi.geodesics.distance
    assert calabi.distance is calabi.geodesics.distance
    assert rebound > len(public)
    for cls in (calabi.space.ConformalFactor, calabi.space.TangentVector):
        assert "__wrapped__" in vars(cls.__init__)


def test_uninstall_restores_every_binding(installed):
    tracer, modules, before, _ = installed
    tracer.uninstall()
    for module in modules:
        for attr, value in vars(module).items():
            assert value is before[(module.__name__, attr)]
    assert "__wrapped__" not in vars(calabi.space.ConformalFactor.__init__)


def test_calls_through_any_binding_record_named_spans(installed):
    tracer = installed[0]
    dom = calabi.make_normalized_domain(8)
    u0 = calabi.project_to_space(dom, np.zeros(8))
    u1 = calabi.project_to_space(dom, np.linspace(0.0, 0.5, 8))
    tracer.job = 7
    calabi.stats.distance(u0, u1)
    spans = tracer.finished_spans()
    names = {s.name for s in spans}
    assert {"geodesics.distance", "space.project_to_space", "space.ConformalFactor"} <= names
    assert all(s.job == 7 for s in spans if s.name == "geodesics.distance")
    seg, _ = calabi.geodesic_dirichlet(u0, u1)
    j0 = calabi.project_to_tangent(u0, np.ones(8))
    calabi.jacobi_solve(seg, j0, j0, 0.1)
    assert "jacobi.jacobi_solve.closed" in {s.name for s in tracer.finished_spans()}


def test_wrapped_call_records_times_parent_and_error():
    ticks = iter([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def fails():
        raise KeyError("x")

    inner = tracer.wrap("m.inner", fails)

    def outer():
        with pytest.raises(KeyError):
            inner()
        return "done"

    assert tracer.wrap("m.outer", outer)() == "done"
    spans = tracer.finished_spans()
    assert spans == [
        Span("m.outer", 1.0, 4.0, -1, None, None),
        Span("m.inner", 2.0, 3.0, 0, None, "KeyError"),
    ]


def _synthetic():
    # root [0, 10] holds A [1, 4] (which holds G [2, 3]), B [5, 9] and C [8, 11];
    # C overlaps B and runs past the root, so only [9, 10] of it is new cover.
    return [
        Span("m.root", 0.0, 10.0, -1, 0),
        Span("m.a", 1.0, 4.0, 0, 0),
        Span("m.g", 2.0, 3.0, 1, 0),
        Span("m.b", 5.0, 9.0, 0, 0),
        Span("m.c", 8.0, 11.0, 0, 0),
    ]


def test_self_time_subtracts_the_union_of_child_intervals():
    assert self_times(_synthetic()) == pytest.approx([2.0, 2.0, 1.0, 4.0, 3.0])


def test_layer_totals_count_nested_spans_of_one_prefix_once():
    spans = [
        Span("p.f", 0.0, 10.0, -1, 0),
        Span("p.f", 2.0, 5.0, 0, 0),  # recursive call
        Span("q.g", 6.0, 7.0, 0, 0),
        Span("p.h.x", 6.25, 6.75, 2, 0),  # under q.g, still inside p.f
    ]
    totals = layer_totals(spans, ["p.f.calls", "p.f.s", "p.f.self_s", "p.s", "p.calls", "q.g.self_s"])
    assert totals == pytest.approx(
        {"p.f.calls": 2, "p.f.s": 10.0, "p.f.self_s": 6.0 + 3.0, "p.s": 10.0, "p.calls": 3, "q.g.self_s": 0.5}
    )


def test_layer_totals_count_exp_attempts_and_domain_errors_below_a_prefix():
    spans = [
        Span("stats.karcher_mean", 0.0, 10.0, -1, 0),
        Span("geodesics.exp_map", 1.0, 2.0, 0, 0, "ExpDomainError"),
        Span("geodesics.exp_map", 3.0, 4.0, 0, 0),
        Span("geodesics.exp_map", 11.0, 12.0, -1, 0, "ExpDomainError"),  # not below the mean
    ]
    totals = layer_totals(
        spans, ["stats.karcher_mean.exp_calls", "stats.karcher_mean.exp_domain_errors", "geodesics.exp_map.calls"]
    )
    assert totals == {
        "stats.karcher_mean.exp_calls": 2.0,
        "stats.karcher_mean.exp_domain_errors": 1.0,
        "geodesics.exp_map.calls": 3.0,
    }


def test_unknown_layer_stat_is_rejected():
    with pytest.raises(ValueError):
        layer_totals(_synthetic(), ["m.root.p99"])
