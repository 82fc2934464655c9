"""Riemannian geometry of normalized log-density fields over a quadrature domain.

The space carries the volume-weighted inner product <v, w>_u = integrate(v w e^u),
has constant positive sectional curvature 1/(4 vol), closed-form geodesics for
both initial-value and two-point problems, explicit Jacobi fields with no
conjugate points, and an exact identification with an open portion of a round
sphere of radius 2 sqrt(vol).  A companion flat gradient metric on normalized
potentials is provided for periodic surface grids.
"""

from .connection import (
    SampledCurve,
    cov_deriv,
    curvature_tensor,
    parallel_transport,
    sectional_curvature,
)
from .errors import (
    ConstraintError,
    ConvergenceError,
    DegenerateEndpointsError,
    DomainMismatchError,
    ExpDomainError,
    GeometryError,
)
from .geodesics import (
    DistanceReport,
    GeodesicSegment,
    arccot,
    boundary_sequence,
    diameter_sequence,
    distance,
    evaluate,
    exp_map,
    geodesic_cauchy,
    geodesic_dirichlet,
    log_map,
    path_length,
)
from .gradient_metric import (
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
    make_grid_potential,
    normalization_value,
    project_to_grid_tangent,
)
from .jacobi import (
    ConjugateScan,
    JacobiClosedForm,
    conjugate_point_scan,
    jacobi_closed_form,
    jacobi_ode_rhs,
    jacobi_solve,
)
from .quadrature import (
    GridShape,
    QuadratureDomain,
    integrate,
    load_domain,
    make_normalized_domain,
    make_torus_grid,
)
from .space import (
    ConformalFactor,
    TangentVector,
    immerse,
    inner,
    load_density,
    norm,
    project_to_space,
    project_to_tangent,
    pushforward,
    random_point,
    random_tangent,
    zero_tangent,
)
from .stats import DensitySet, distance_matrix, karcher_mean

__version__ = "0.1.0"
