"""Concentric spheres: the radially symmetric sector of the 3D problem.

The substitution v = r u reduces the spherically symmetric operator to a
1D problem, which gives a closed transcendental equation for the limit
eigenvalues with a high-contrast ball of radius a inside the unit ball:

    a sqrt(lam) cot(sqrt(lam) (1 - a)) = lam a^2 / 3 - 1.

The zero-flux family is empty in this sector: an exterior radial
eigenfunction with zero flux through the sphere r = a would vanish
identically.  Every discrete operator of the sector is an ``fdm`` grid
operator: ``fdm.build_grid`` makes the radial grid of [0, 1] (face
measure r^2, cell mass the integral of r^2), so the finite-contrast
operator, the eps = 0 limit pencil (``limitspec``), the interface
reduction (``dtn``) and the interface flux serve it unchanged.  This
module keeps the closed forms and two thin views of ``fdm``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._roots import scan_roots
from .fdm import DiscreteOperator, assemble, smallest_eigenpairs
from .geometry import BoundaryKind, ContrastMedium, GeometryError, RadialGeometry

__all__ = [
    "RadialField",
    "sphere_limit_spectrum",
    "sphere_char",
    "radial_operator",
    "radial_eigenpairs",
]


@dataclass(frozen=True)
class RadialField:
    """Radial profile u(r) on [0, 1] in the spherically symmetric sector."""

    r: np.ndarray
    u: np.ndarray

    def __call__(self, rq):
        return np.interp(rq, self.r, self.u)


def sphere_char(a: float, lam: float) -> float:
    """Characteristic function whose roots are the limit eigenvalues."""
    s = np.sqrt(lam)
    return a * s / np.tan(s * (1.0 - a)) - (lam * a * a / 3.0 - 1.0)


def _sphere_poles(a: float, lam_max: float) -> list[float]:
    poles = []
    n = 1
    while (n * np.pi / (1.0 - a)) ** 2 <= lam_max * 1.0000001:
        poles.append((n * np.pi / (1.0 - a)) ** 2)
        n += 1
    return poles


def _sphere_eigenfunction(a: float, lam: float) -> RadialField:
    """Closed-form limit eigenfunction on 2001 radii: 1 inside, sine ratio
    over r outside."""
    s = np.sqrt(lam)
    r = np.linspace(0.0, 1.0, 2001)
    u = np.ones_like(r)
    out = r >= a
    denom = np.sin(s * (1.0 - a))
    with np.errstate(divide="ignore", invalid="ignore"):
        u[out] = a * np.sin(s * (1.0 - r[out])) / (r[out] * denom)
    u[np.isclose(r, 0.0)] = 1.0
    if np.isclose(r[-1], 1.0):
        u[-1] = 0.0
    return RadialField(r, u)


def sphere_limit_spectrum(a: float, lam_max: float):
    """All limit eigenvalues in (0, lam_max] with closed-form eigenfunctions.

    Returns (pairs, S1) where pairs is a list of (lam, RadialField) and S1
    is the zero-flux family -- always the empty tuple in this sector.
    """
    if not 0.0 < a < 1.0:
        raise GeometryError("sphere radius must satisfy 0 < a < 1")
    report = scan_roots(lambda lam: sphere_char(a, lam), 1e-9, lam_max,
                        poles=_sphere_poles(a, lam_max), xtol=1e-13)
    pairs = [(r, _sphere_eigenfunction(a, r)) for r in report.roots]
    return pairs, ()


def radial_operator(a: float, eps: float, n_grid: int,
                    bc: str = "dirichlet") -> DiscreteOperator:
    """The radial grid operator of ``fdm.assemble`` (n_grid cells, the
    sphere r = a on a face) for the ball of radius a at contrast eps."""
    return assemble(ContrastMedium(RadialGeometry(a), eps, BoundaryKind(bc)), n_grid)


def radial_eigenpairs(opr: DiscreteOperator, count: int):
    """(eigenvalues, mass-orthonormal vectors, residuals) of
    ``fdm.smallest_eigenpairs``: under Neumann those after the constant
    mode, checked to be zero."""
    result = smallest_eigenpairs(opr, count)
    return result.eigenvalues, result.eigenvectors, result.residuals
