"""Numerical laboratory for domain-perturbation calculus on smooth plane domains.

Implements and cross-verifies derivative formulas for volume, area, and flux
integrals over deformed domains, and the first/second variations of the
mixed Dirichlet/Neumann Green's function, against finite-difference,
exact discrete-derivative and closed-form oracles.
"""

from .geometry import (BoundaryCurve, BoundaryGrid, CollarExtension, Domain,
                       GeometryError, InteriorQuadrature, MixedBoundary,
                       all_dirichlet, annulus, build_grid, collar_extend,
                       disk, elliptical_domain, interior_quadrature,
                       second_fundamental_form, star_domain, tangential_grad)
from .greens import (GreensAccuracyError, GreensConfig, GreensError,
                     GreensEval, GreensSolver, disk_greens,
                     fundamental_gradient, fundamental_solution,
                     representation_check)
from .hadamard import (HadamardCoefficients, chi_sigma, delta2_n_bvp,
                       delta2_n_fd, delta2_n_formula, delta2_n_routes,
                       delta2_n_tangent, delta_n_bvp, delta_n_fd,
                       delta_n_formula, delta_n_routes, delta_n_tangent,
                       gradient_pairing_residual, probe_warning,
                       second_bvp_data, translation_transport)
from .integrands import IntegrandSpec, VectorIntegrandSpec
from .liouville import (boundary_flux_first, boundary_flux_second,
                        fd_reference, first_area, first_volume, nu_dot,
                        nu_dot_fd, second_area, second_volume)
from .perturbation import (FlowFamily, NormalFamily, PerturbationError,
                           PolynomialField, TaylorFamily, boundary_data,
                           det_derivatives, dilation, inverse_jacobian_derivatives,
                           minor_polynomial, rotation, shear, translation)

__version__ = "0.1.0"
