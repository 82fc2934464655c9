"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for all geometric-consistency failures."""


class DomainMismatchError(GeometryError):
    """Objects built over different quadrature domains or basepoints were mixed."""


class ConstraintError(GeometryError):
    """A field violates the membership constraint of the space it claims to be in."""


class ExpDomainError(GeometryError):
    """Initial velocity outside the domain of the exponential map.

    The attribute ``bound`` carries the largest admissible norm for the
    requested direction.
    """

    def __init__(self, message: str, bound: float):
        super().__init__(message)
        self.bound = bound


class DegenerateEndpointsError(GeometryError):
    """Two-point boundary problem called with equal endpoints."""


class ConvergenceError(GeometryError):
    """An iterative solver exhausted its budget.

    The attribute ``residual`` carries the last observed residual.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual
