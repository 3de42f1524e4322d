"""Spectra of high-contrast composite media.

A numerical laboratory for the elliptic operator -div(sigma grad) with
coefficient 1 in the matrix and 1/eps in the inclusions, under Dirichlet,
Neumann, or Bloch outer conditions: finite-contrast grid spectra, exact
1D transfer-matrix oracles, the discrete Dirichlet-to-Neumann reduction,
and the eps -> 0 limit spectrum via the nonlocal interface problem.
"""

from .geometry import (BoundaryKind, ContrastMedium, Geometry1D, Geometry2D,
                       GeometryError, RadialGeometry, measure_inclusion,
                       medium_from_config, rectangles_to_mask, refine)
from .fdm import assemble, smallest_eigenpairs, solve, flux_on_interface
from .exact1d import (transfer_spectrum_1d, limit_spectrum_1d,
                      bloch_limit_curve, rationality_certificate)
from .dtn import build_dtn, solve_block_system, apply_Bhat, analyticity_probe
from .limitspec import (det_scan, zero_flux_branch, limit_spectrum,
                        limit_spectrum_neumann, effective_resolvent,
                        exterior_helmholtz_solve)
from .bloch import dispersion_sweep, gap_report
from .radial3d import sphere_limit_spectrum, radial_operator, radial_eigenpairs

__version__ = "0.1.0"
