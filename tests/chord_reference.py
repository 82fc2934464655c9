"""Reference distance for the tests, independent of the package.

It works on plain lists in scalar arithmetic: the half-chord |h1 - h0| of
h = e^(u/2) is summed node by node from h0 expm1((u1 - u0)/2), which has no
cancellation, with ``math.fsum``, which rounds once.
"""

import math


def reference_distance(u0, u1):
    """2 rho asin(m / rho) for two points of the package, with the half-chord
    m = |h1 - h0| summed exactly."""
    dom = u0.domain
    terms = [
        w * (math.exp(0.5 * a) * math.expm1(0.5 * (b - a))) ** 2
        for w, a, b in zip(dom.weights.tolist(), u0.values.tolist(), u1.values.tolist())
    ]
    return 2.0 * dom.radius * math.asin(math.sqrt(math.fsum(terms)) / dom.radius)
