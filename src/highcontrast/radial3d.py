"""Concentric spheres: the radially symmetric sector of the 3D problem.

The substitution v = r u reduces the spherically symmetric operator to a
1D problem, which gives a closed transcendental equation for the limit
eigenvalues with a high-contrast ball of radius a inside the unit ball:

    a sqrt(lam) cot(sqrt(lam) (1 - a)) = lam a^2 / 3 - 1.

The zero-flux family is empty in this sector: an exterior radial
eigenfunction with zero flux through the sphere r = a would vanish
identically.  For finite contrast a finite-volume operator on [0, 1]
with r^2-weighted conductances provides the cross-check spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ._roots import scan_roots
from .fdm import (ALIGN_TOL, check_constant_mode, eigenpairs_below, face_matrix,
                  harmonic_means, shift_invert_eigenpairs)
from .geometry import GeometryError

__all__ = [
    "RadialField",
    "RadialOperator",
    "sphere_limit_spectrum",
    "sphere_char",
    "radial_operator",
    "radial_eigenpairs",
    "sphere_det_scan",
    "flux_at_interface",
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


@dataclass(frozen=True)
class RadialOperator:
    """r^2-weighted finite-volume operator on [0, 1].

    Generalized eigenproblem K u = lam M u with M the diagonal of cell
    masses (integral of r^2 over each cell); symmetric positive
    semi-definite by construction, positive definite under the Dirichlet
    closure at r = 1.
    """

    a: float
    epsilon: float
    h: float
    bc_kind: str
    labels: np.ndarray          # 1 inside r < a, 0 outside
    centers: np.ndarray
    K: sp.csr_matrix = field(repr=False)
    M: np.ndarray = field(repr=False)   # diagonal cell masses

    @property
    def n(self) -> int:
        return self.labels.size


def _weighted_operator(r: np.ndarray, h: float, sig: np.ndarray, closed=()):
    """r^2-weighted finite-volume stiffness and cell masses on the cells
    between the face radii ``r``: a 1D face table with face weight r^2 and
    cell mass the integral of r^2.

    Inner faces carry the harmonic mean of the adjacent cell coefficients
    times r^2 / h.  ``closed`` lists outer faces (0 or ``len(r) - 1``) that
    close their cell on a zero value half a cell away: 2 sigma r^2 / h.
    """
    n = sig.size
    inner = np.arange(1, n)               # face j lies between cells j - 1 and j
    closed = np.asarray(closed, dtype=int)
    cin = np.concatenate([inner - 1, np.minimum(closed, n - 1)])
    cout = np.concatenate([inner, np.full(closed.size, -1)])
    weight = r[np.concatenate([inner, closed])] ** 2
    K = face_matrix(n, cin, cout, harmonic_means(sig, cin, cout) * weight / h,
                    np.ones(cin.size))
    return K, (r[1:] ** 3 - r[:-1] ** 3) / 3.0


def _interface_face(a: float, n_grid: int) -> int:
    """Index of the grid face at r = a; raises unless r = a is an inner face."""
    h = 1.0 / n_grid
    j_if = round(a / h)
    if not 0 < j_if < n_grid or abs(j_if * h - a) > ALIGN_TOL:
        raise GeometryError(f"interface r={a} does not align with the grid (n={n_grid})")
    return j_if


def radial_operator(a: float, eps: float, n_grid: int,
                    bc: str = "dirichlet") -> RadialOperator:
    """Radial discretization with the interface aligned to a cell face."""
    if eps <= 0:
        raise GeometryError("radial assembly needs epsilon > 0")
    if bc not in ("dirichlet", "neumann"):
        raise GeometryError(f"unsupported radial closure {bc!r}")
    _interface_face(a, n_grid)
    h = 1.0 / n_grid
    faces = h * np.arange(n_grid + 1)
    centers = (faces[:-1] + faces[1:]) / 2.0
    labels = (centers < a).astype(int)
    sig = np.where(labels == 1, 1.0 / eps, 1.0)
    K, masses = _weighted_operator(faces, h, sig,
                                   closed=(n_grid,) if bc == "dirichlet" else ())
    return RadialOperator(a, eps, h, bc, labels, centers, K, masses)


def radial_eigenpairs(opr: RadialOperator, count: int):
    """Smallest ``count`` eigenpairs of the weighted generalized problem
    (under Neumann those after the constant mode, checked to be zero):
    Rayleigh quotients and vectors orthonormal in the mass inner product;
    residuals are those of the mass-scaled standard problem."""
    if count < 1 or count >= opr.n - 1:
        raise ValueError("count out of range")
    drop = int(opr.bc_kind == "neumann")
    w, v, res = shift_invert_eigenpairs(opr.K, opr.M, count + drop)
    if drop:
        check_constant_mode(w[0], w[1])
    return w[drop:], v[:, drop:], res[drop:]


def flux_at_interface(opr: RadialOperator, u: np.ndarray) -> float:
    """Total outward flux 4 pi a^2 sigma du/dr through the face r = a.

    Uses the conserved face flux of the scheme (harmonic-mean conductance
    across the interface), matching the discrete divergence identity."""
    j = round(opr.a / opr.h)
    s_in, s_out = 1.0 / opr.epsilon, 1.0
    g = 2.0 * s_in * s_out / (s_in + s_out) / opr.h
    return 4.0 * np.pi * opr.a ** 2 * g * (u[j] - u[j - 1])


def _exterior_radial(a: float, n_grid: int):
    """Exterior block (cells in (a, 1)) with a trace dof at r = a, sigma = 1."""
    j_if = _interface_face(a, n_grid)
    h = 1.0 / n_grid
    faces = h * np.arange(j_if, n_grid + 1)
    # the closure at r = a is the half-cell tie to the trace dof, the one at
    # r = 1 the Dirichlet condition
    nE = n_grid - j_if
    K, masses = _weighted_operator(faces, h, np.ones(nE), closed=(0, nE))
    g_if = 2.0 * a ** 2 / h
    return K.tocsc(), sp.diags(masses).tocsc(), g_if


def sphere_det_scan(a: float, lam_max: float, n_grid: int):
    """Limit eigenvalues from the discrete radial flux equation
    T(lam) = 4 pi [flux of the unit-trace exterior solve] + lam |ball|;
    cross-checks the closed-form roots on the finite-volume grid.

    The flux is a continued fraction of the face conductances: from the
    Dirichlet face at r = 1 inwards, the admittance y seen from each cell
    is its outer face in series with the admittance beyond, less lam times
    its mass, and the flux is -(g_if in series with y) at r = a.  A solve of
    (K - lam M) u = g_if e_0 (flux g_if (u_0 - 1)) is about 1e-12 relative
    off in its roots at a = 1/2, n = 2000: each diagonal of K rounds the sum
    of two face conductances, about 2000 times the small admittance that
    the flux is made of."""
    K, M, g_if = _exterior_radial(a, n_grid)
    ball = 4.0 / 3.0 * np.pi * a ** 3
    g = (-K.diagonal(1)).tolist()             # inner faces, outwards
    mass = M.diagonal().tolist()
    g_out = float(K[-1, -1]) - g[-1]          # the closure at r = 1
    pairs = list(zip(g[::-1], mass[-2::-1]))

    def T(lam):
        y = g_out - lam * mass[-1]
        for gj, mj in pairs:
            y = gj * y / (gj + y) - lam * mj
        return lam * ball - 4.0 * np.pi * g_if * y / (g_if + y)

    poles = eigenpairs_below(K, M.diagonal(), lam_max * 1.05)[0]
    report = scan_roots(T, 1e-9, lam_max, poles=poles, xtol=1e-13)
    return list(report.roots)
