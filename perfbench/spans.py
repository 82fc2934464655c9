"""Spans around calls into calabi's public functions, installed from outside.

``Tracer.install`` wraps every function a calabi module lists in ``__all__``
and rebinds the wrapper at every module-level binding of that function in
the package, not only where it is defined: calabi imports by name, so
``geodesics.distance`` is also bound in ``stats``, ``immersion``, ``verify``
and the package namespace.  The ``__init__`` of ``ConformalFactor`` and
``TangentVector`` is wrapped too, so every point and tangent build is a span.

A span records its name, start, end, parent span, job id and the exception
type it ended with.  Spans stay in memory until the run ends.  A span's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from typing import Callable, Iterable, NamedTuple

# Classes whose construction is traced, as (module, class name).
TRACED_CLASSES = (("space", "ConformalFactor"), ("space", "TangentVector"))

# Functions whose span name carries the value of one argument.
SPAN_VARIANTS = {"jacobi.jacobi_solve": "method"}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at top level
    job: int | None
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def package_modules(package) -> list:
    """The package and every one of its submodules, imported."""
    names = [info.name for info in pkgutil.iter_modules(package.__path__, package.__name__ + ".")]
    return [package] + [importlib.import_module(name) for name in names]


def _short_name(module) -> str:
    return module.__name__.split(".", 1)[1] if "." in module.__name__ else module.__name__


class Tracer:
    """Collects spans from wrapped calls; ``job`` tags the spans of one job."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, variant_arg: str | None = None) -> Callable:
        """Return ``fn`` wrapped so that each call records one span."""
        spans, stack, clock = self.spans, self._stack, self.clock
        signature = inspect.signature(fn) if variant_arg else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                label = f"{name}.{bound.arguments[variant_arg]}"
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(label, start, end, parent, self.job, error)

        return traced

    def install(self, package) -> None:
        """Wrap every public function of the package at all its bindings."""
        modules = package_modules(package)
        wrappers: dict[int, Callable] = {}
        for module in modules:
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{_short_name(module)}.{attr}"
                    wrappers[id(fn)] = self.wrap(name, fn, SPAN_VARIANTS.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        by_name = {_short_name(m): m for m in modules}
        for module_name, class_name in TRACED_CLASSES:
            cls = getattr(by_name[module_name], class_name)
            init = cls.__init__
            self._restore.append((cls, "__init__", init))
            cls.__init__ = self.wrap(f"{module_name}.{class_name}", init)

    def uninstall(self) -> None:
        """Put every original binding back."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def finished_spans(self) -> list[Span]:
        """All spans in start order; every traced call must have returned."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans are still open")
        return list(self.spans)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def _matches(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def _has_ancestor(spans: list[Span], index: int, test: Callable[[str], bool]) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if test(spans[parent].name):
            return True
        parent = spans[parent].parent
    return False


def layer_totals(spans: list[Span], metric_names: Iterable[str]) -> dict[str, float]:
    """Totals over all spans for metric names of the form ``<prefix>.<stat>``.

    A prefix selects the spans whose name is the prefix or lies under it
    (``gradient_metric`` selects the whole module, ``jacobi.jacobi_solve``
    both of its methods).  Stats: ``calls`` counts them; ``s`` sums the
    durations of those with no selected ancestor, so recursion and nesting
    inside the prefix are counted once; ``self_s`` sums their self times.
    ``exp_calls`` and ``exp_domain_errors`` count the ``geodesics.exp_map``
    calls below the prefix, and those that raised ``ExpDomainError``.
    """
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)
    selves = None
    totals = {}
    for metric in metric_names:
        prefix, stat = metric.rsplit(".", 1)
        picked = [i for name, found in by_name.items() if _matches(name, prefix) for i in found]
        if stat == "calls":
            value = float(len(picked))
        elif stat == "s":
            value = sum(
                spans[i].duration
                for i in picked
                if not _has_ancestor(spans, i, lambda n: _matches(n, prefix))
            )
        elif stat == "self_s":
            selves = selves if selves is not None else self_times(spans)
            value = sum(selves[i] for i in picked)
        elif stat in ("exp_calls", "exp_domain_errors"):
            exps = [
                i
                for i in by_name.get("geodesics.exp_map", ())
                if _has_ancestor(spans, i, lambda n: _matches(n, prefix))
            ]
            if stat == "exp_domain_errors":
                exps = [i for i in exps if spans[i].error == "ExpDomainError"]
            value = float(len(exps))
        else:
            raise ValueError(f"unknown layer stat {stat!r} in {metric!r}")
        totals[metric] = value
    return totals
